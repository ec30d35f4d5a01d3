package wire

import "reflect"

// Codec is the bidirectional face of the wire format: one value wrapping
// either an Encoder or a Decoder, whose methods take pointers. A type
// lists its fields once —
//
//	func codeAlarm(c *wire.Codec, a *alarm) {
//		wire.Fixed64(c, &a.deadline)
//		wire.Int(c, &a.ep)
//		c.Uvarint(&a.seq)
//	}
//
// — and that one list writes the fields when the codec encodes and
// reads them when it decodes, so the two directions cannot disagree
// about order, width or a forgotten field. The bytes are exactly what
// the Encoder methods of the same names produce.
//
// Errors are sticky in both directions (a Decoder's already are): walk
// the whole record, then check Err once.
type Codec struct {
	e   *Encoder
	d   *Decoder
	err error // encoding only; a Decoder keeps its own
}

// Encoding returns a codec that appends to e.
func Encoding(e *Encoder) *Codec { return &Codec{e: e} }

// Decoding returns a codec that reads from d.
func Decoding(d *Decoder) *Codec { return &Codec{d: d} }

// Decoding reports the direction. Field lists need it only where the
// two directions differ in more than the direction of the copy:
// allocating what a pointer field points to, or rebuilding a derived
// structure after its elements were read.
func (c *Codec) Decoding() bool { return c.d != nil }

// Err returns the first error of the walk.
func (c *Codec) Err() error {
	if c.d != nil {
		return c.d.err
	}
	return c.err
}

// Fail records err as the walk's error unless one is already recorded.
// A decoding codec consumes no input from here on.
func (c *Codec) Fail(err error) {
	if c.d != nil {
		c.d.fail(err)
	} else if c.err == nil {
		c.err = err
	}
}

// code is the one direction switch of the fixed-kind methods: each pairs
// the Encoder method with the Decoder method of its name.
func code[T any](c *Codec, p *T, enc func(*Encoder, T), dec func(*Decoder) T) {
	if c.d != nil {
		*p = dec(c.d)
	} else {
		enc(c.e, *p)
	}
}

// Bool codes a single-byte boolean.
func (c *Codec) Bool(p *bool) { code(c, p, (*Encoder).Bool, (*Decoder).Bool) }

// Uvarint codes an unsigned varint.
func (c *Codec) Uvarint(p *uint64) { code(c, p, (*Encoder).Uvarint, (*Decoder).Uvarint) }

// U32 codes a fixed-width little-endian uint32.
func (c *Codec) U32(p *uint32) { code(c, p, (*Encoder).U32, (*Decoder).U32) }

// Str codes a length-prefixed string.
func (c *Codec) Str(p *string) { code(c, p, (*Encoder).Str, (*Decoder).Str) }

// Blob codes a length-prefixed byte slice; nil and empty stay distinct,
// and a decoded slice never aliases the stream.
func (c *Codec) Blob(p *[]byte) { code(c, p, (*Encoder).Blob, (*Decoder).Blob) }

// Any codes an interface-typed value through the type registry.
func (c *Codec) Any(p *any) {
	if c.d != nil {
		*p, _ = c.d.Any()
	} else if c.err == nil {
		c.err = c.e.Any(*p)
	}
}

// Value codes the value p points to reflectively (Encoder.Value /
// Decoder.Value): for exported plain-data structs whose field list is
// their declaration.
func (c *Codec) Value(p any) {
	v := reflect.ValueOf(p).Elem()
	if c.d != nil {
		c.d.Value(v)
	} else if c.err == nil {
		c.err = c.e.Value(v)
	}
}

// Len codes an element count: it writes n when encoding, and when
// decoding returns the count the stream holds, checked against the bytes
// left (Decoder.count) — 0 once the walk has failed, so a loop over the
// result ends.
func (c *Codec) Len(n int) int {
	if c.d == nil {
		c.e.Uvarint(uint64(n))
		return n
	}
	u := c.d.Uvarint()
	c.d.count(u)
	if c.d.err != nil {
		return 0
	}
	return int(u)
}

// Int codes a signed integer of any named kind as a zig-zag varint.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, p *T) {
	if c.d != nil {
		*p = T(c.d.Varint())
	} else {
		c.e.Varint(int64(*p))
	}
}

// Fixed64 codes a 64-bit unsigned quantity of any named kind as eight
// little-endian bytes.
func Fixed64[T ~uint64](c *Codec, p *T) {
	if c.d != nil {
		*p = T(c.d.U64())
	} else {
		c.e.U64(uint64(*p))
	}
}

// Slice codes a count followed by the elements, each through elem. A
// decoded empty slice is nil.
func Slice[T any](c *Codec, p *[]T, elem func(*Codec, *T)) {
	n := c.Len(len(*p))
	if c.d != nil {
		*p = nil
		if n > 0 {
			*p = make([]T, 0, min(n, maxPrealloc))
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.d != nil {
			// Decoded in place: a local handed to elem would be one heap
			// allocation an element.
			var zero T
			*p = append(*p, zero)
		}
		elem(c, &(*p)[i])
	}
}
