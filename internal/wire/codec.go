package wire

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Codec is the bidirectional face of the wire format: one value wrapping
// an Encoder or a Decoder, or hashing, whose methods take pointers. A
// type lists its fields once —
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
// the Encoder methods of the same names produce. The third direction,
// hashing, feeds the same list into a state fingerprint (Hashing).
//
// Errors are sticky in every direction (a Decoder's already are): walk
// the whole record, then check Err once.
type Codec struct {
	e       *Encoder
	d       *Decoder
	hashing bool
	h       sim.Hash
	err     error // encoding and hashing; a Decoder keeps its own
}

// Encoding returns the codec that appends to e, with no error recorded:
// an encoder has one, so a second call starts the first one's walk over.
func Encoding(e *Encoder) *Codec {
	e.codec = Codec{e: e}
	return &e.codec
}

// Decoding returns the codec that reads from d, likewise; its errors are
// d's.
func Decoding(d *Decoder) *Codec {
	d.codec = Codec{d: d}
	return &d.codec
}

// Hashing returns the codec that absorbs every value a field list visits
// into a sim.Hash starting at from, encoding nothing: an integer, a bool
// or a count as one Word, a string or a blob as a length Word and its
// bytes. The caller keeps it (there is no Encoder to live in) and reads
// Sum after the walk. Decoding is false: a list walks it as it encodes.
func Hashing(from sim.Hash) Codec { return Codec{hashing: true, h: from} }

// Sum returns the finished hash of what a hashing codec has absorbed.
func (c *Codec) Sum() uint64 { return c.h.Sum() }

// Decoding reports the direction. Field lists need it only where the
// directions differ in more than the direction of the copy: allocating
// what a pointer field points to, or rebuilding a derived structure after
// its elements were read.
func (c *Codec) Decoding() bool { return c.d != nil }

// Hashing reports whether the codec hashes, for a list that must tell a
// fingerprint (no allocation) from an encoding (may read shared state).
func (c *Codec) Hashing() bool { return c.hashing }

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
// the put method of its name, which encodes or hashes, with the Decoder
// method; the branch in put costs the methods none of their inlining.
func code[T any](c *Codec, p *T, put func(*Codec, T), dec func(*Decoder) T) {
	if c.d != nil {
		*p = dec(c.d)
	} else {
		put(c, *p)
	}
}

// Bool codes a single-byte boolean.
func (c *Codec) Bool(p *bool) { code(c, p, (*Codec).putBool, (*Decoder).Bool) }

// Uvarint codes an unsigned varint.
func (c *Codec) Uvarint(p *uint64) { code(c, p, (*Codec).putUvarint, (*Decoder).Uvarint) }

// U32 codes a fixed-width little-endian uint32.
func (c *Codec) U32(p *uint32) { code(c, p, (*Codec).putU32, (*Decoder).U32) }

// Str codes a length-prefixed string.
func (c *Codec) Str(p *string) { code(c, p, (*Codec).putStr, (*Decoder).Str) }

func (c *Codec) putBool(b bool) {
	if !c.hashing {
		c.e.Bool(b)
	} else if b {
		c.h.Word(1)
	} else {
		c.h.Word(0)
	}
}

func (c *Codec) putUvarint(u uint64) {
	if c.hashing {
		c.h.Word(u)
	} else {
		c.e.Uvarint(u)
	}
}

func (c *Codec) putU32(u uint32) {
	if c.hashing {
		c.h.Word(uint64(u))
	} else {
		c.e.U32(u)
	}
}

func (c *Codec) putStr(s string) {
	if c.hashing {
		c.h.Word(uint64(len(s)))
		c.h.Text(s)
	} else {
		c.e.Str(s)
	}
}

// StrBytes codes a byte slice in Str's bytes and hash — its length, then
// its bytes — so a []byte field can take a string field's place without
// moving a byte of an image or a fingerprint. Unlike Blob it does not
// tell nil from empty: both code as the empty string, which decodes as
// nil. A decoded slice is a copy, never aliasing the stream.
func (c *Codec) StrBytes(p *[]byte) { code(c, p, (*Codec).putStrBytes, (*Decoder).strBytes) }

func (c *Codec) putStrBytes(b []byte) {
	if c.hashing {
		c.h.Word(uint64(len(b)))
		c.h.Bytes(b)
	} else {
		c.e.Uvarint(uint64(len(b)))
		c.e.buf = append(c.e.buf, b...)
	}
}

// Tag codes a string both ends already know — a type's name, given in the
// parts it is made of — in Str's bytes. Encoding writes the parts as one
// string; decoding reads a string and fails the walk unless it is the
// parts joined. Neither allocates.
func (c *Codec) Tag(parts ...string) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if c.d == nil {
		c.putUvarint(uint64(n))
		for _, p := range parts {
			if c.hashing {
				c.h.Text(p)
			} else {
				c.e.buf = append(c.e.buf, p...)
			}
		}
		return
	}
	got := c.d.take(c.d.Uvarint())
	if c.d.err != nil {
		return
	}
	same, rest := len(got) == n, got
	for _, p := range parts {
		if same {
			same, rest = string(rest[:len(p)]) == p, rest[len(p):]
		}
	}
	if !same {
		c.d.fail(wireError("wire: type tag " + strconv.Quote(string(got)) + " in the stream, the code expects " + strconv.Quote(strings.Join(parts, ""))))
	}
}

// Blob codes a length-prefixed byte slice; nil and empty stay distinct,
// and a decoded slice never aliases the stream.
func (c *Codec) Blob(p *[]byte) { code(c, p, (*Codec).putBlob, (*Decoder).Blob) }

func (c *Codec) putBlob(b []byte) {
	if c.hashing {
		c.h.Word(blobHead(b))
		c.h.Bytes(b)
	} else {
		c.e.Blob(b)
	}
}

// blobHead is the length word of a blob or a slice: 0 for nil, else the
// length plus one.
func blobHead[T any](s []T) uint64 { return head(s != nil, len(s)) }

func head(some bool, n int) uint64 {
	if !some {
		return 0
	}
	return uint64(n) + 1
}

// Head codes the head of the slice form — 0 for nil, else the count plus
// one — for a sequence of n elements, nil unless some, that is held other
// than as one Go slice (memlog's paged Slice); the elements follow, coded
// in place (Items). Encoding, it makes room for them as Len does.
// Decoding, it returns what the stream holds, the count checked against
// the bytes left first: (false, 0) for nil or once the walk has failed.
func (c *Codec) Head(some bool, n int) (bool, int) {
	if c.d == nil {
		if c.putUvarint(head(some, n)); !c.hashing {
			c.e.Grow(n) // an element takes at least a byte
		}
		return some, n
	}
	u := c.d.Uvarint()
	if u == 0 {
		return false, 0
	}
	size := c.d.count(u - 1)
	if c.d.err != nil {
		return false, 0
	}
	return true, size
}

// bytes codes b in place, as its bytes: a blob's body.
func (c *Codec) bytes(b []byte) {
	switch {
	case c.hashing:
		c.h.Bytes(b)
	case c.d != nil:
		copy(b, c.d.take(uint64(len(b))))
	default:
		c.e.buf = append(c.e.buf, b...)
	}
}

// BlobOf codes whatever fill codes as one blob, in Blob's bytes, without
// a buffer in between. Encoding, fill writes straight into the stream and
// the length is put in front of what it wrote afterwards (the bytes move
// up by the one or two that takes). Decoding, fill reads from the blob
// and must read all of it. Hashing, fill hashes as it would anywhere.
func (c *Codec) BlobOf(fill func(*Codec)) {
	if c.hashing {
		fill(c)
		return
	}
	if c.d != nil {
		n := c.d.Uvarint()
		if n == 0 {
			n = 1 // a nil blob reads as an empty one
		}
		sub := Decoding(NewDecoder(c.d.take(n - 1)))
		if c.d.err != nil {
			return
		}
		if fill(sub); sub.d.err == nil && sub.d.Remaining() != 0 {
			sub.d.err = wireError("wire: " + strconv.Itoa(sub.d.Remaining()) + " bytes of a blob left unread")
		}
		c.d.err = sub.d.err
		return
	}
	e, start := c.e, len(c.e.buf)
	fill(c)
	n := len(e.buf) - start
	var head [10]byte // the longest varint
	w := len(appendUvarint(head[:0], uint64(n)+1))
	e.buf = append(e.buf, head[:w]...)
	copy(e.buf[start+w:], e.buf[start:start+n])
	copy(e.buf[start:], head[:w])
}

// Len codes an element count. Every element takes at least a byte, and
// both directions hold the count to that: encoding, it writes n and makes
// room for n bytes; decoding, it returns the count the stream holds,
// checked against the bytes left (Decoder.count) — 0 once the walk has
// failed, so a loop over the result ends.
func (c *Codec) Len(n int) int {
	if c.d == nil {
		if c.putUvarint(uint64(n)); !c.hashing {
			c.e.Grow(n)
		}
		return n
	}
	u := c.d.Uvarint()
	c.d.count(u)
	if c.d.err != nil {
		return 0
	}
	return int(u)
}

type (
	signed interface {
		~int | ~int8 | ~int16 | ~int32 | ~int64
	}
	unsigned interface {
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
	}
)

// Int codes a signed integer of any named kind as a zig-zag varint. A
// decoded value the kind cannot hold fails the walk rather than wrap: it
// would not encode back to the bytes it came from.
func Int[T signed](c *Codec, p *T) {
	if c.d == nil {
		c.putUvarint(zigzag(int64(*p)))
		return
	}
	v := c.d.Varint()
	if *p = T(v); int64(*p) != v {
		c.d.fail(overflow(strconv.FormatInt(v, 10)))
	}
}

// Uint codes an unsigned integer of any named kind as a varint, with
// Int's range check.
func Uint[T unsigned](c *Codec, p *T) {
	if c.d == nil {
		c.putUvarint(uint64(*p))
		return
	}
	v := c.d.Uvarint()
	if *p = T(v); uint64(*p) != v {
		c.d.fail(overflow(strconv.FormatUint(v, 10)))
	}
}

// Fixed64 codes a 64-bit unsigned quantity of any named kind as eight
// little-endian bytes.
func Fixed64[T ~uint64](c *Codec, p *T) {
	if c.hashing {
		c.h.Word(uint64(*p))
	} else if c.d != nil {
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
			*p = make([]T, n)
		}
	}
	// Decoded in place: a local handed to elem would be one heap
	// allocation an element.
	for i := 0; i < n && c.Err() == nil; i++ {
		elem(c, &(*p)[i])
	}
}

// overflow is the error of a decoded integer its field cannot hold.
func overflow(v string) error {
	return wireError("wire: " + v + " overflows the integer kind it is read into")
}

// Map codes a map in the slice form of its keys — 0 for nil, else the
// count plus one — with each key, ascending, followed by its value.
// Decoding, keys must be strictly ascending: a stream that repeats a key
// or puts one out of order is refused, since no map encodes to it.
func Map[K cmp.Ordered, V any](c *Codec, p *map[K]V, key func(*Codec, *K), val func(*Codec, *V)) {
	var keys []K
	if c.d == nil && *p != nil {
		keys = make([]K, 0, len(*p))
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	n := sliceHead(c, &keys)
	if c.d != nil {
		*p = nil
		if keys != nil {
			*p = make(map[K]V, n)
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var v V
		if c.d == nil {
			v = (*p)[keys[i]]
		}
		key(c, &keys[i])
		if c.d != nil && i > 0 && !(keys[i-1] < keys[i]) {
			c.d.fail(wireError("wire: a map key repeats or is out of order"))
			return
		}
		if val(c, &v); c.d != nil {
			(*p)[keys[i]] = v
		}
	}
}

// Tagged codes *p, an interface slot that is nil or holds a T: nil as the
// empty tag, a T as the name of T (Tag) followed by T through code. It is
// the closed form of a payload both ends know the type of. Encoding,
// anything else in *p fails the walk; decoding, a tag that names another
// type does, and *p is set only when the walk holds.
func Tagged[T any](c *Codec, p *any, name string, code func(*Codec, *T)) {
	var v T
	var ok bool
	if d := c.d; d != nil {
		if d.err == nil && d.off < len(d.buf) && d.buf[d.off] == 0 {
			d.off++ // the empty tag's zero length
			*p = nil
			return
		}
	} else if *p == nil {
		c.Tag()
		return
	} else if v, ok = (*p).(T); !ok {
		c.Fail(wireError("wire: the slot for " + name + " holds another type"))
		return
	}
	c.Tag(name)
	code(c, &v)
	if c.d != nil && c.d.err == nil {
		*p = v
	}
}

// Retired holds the place of a field a format has retired — a bool that
// was false, or an integer that was zero, in every stream: it has no
// value, and it codes as the one zero byte every stream holds in the
// slot. A decode refuses any other byte, so a set flag or a nonzero
// varint of any length is refused too. The reflective oracle walks it
// the same way, exported or not, so a struct keeps the slot in its
// declaration and its field list alike.
type Retired struct{}

// Code codes the slot.
func (*Retired) Code(c *Codec) {
	var b bool
	if c.Bool(&b); b {
		c.Fail(wireError("wire: a retired slot holds true"))
	}
}

// Nil codes an interface slot that holds nothing, in Tagged's form of
// nil: the empty tag. Anything else in the slot or in the stream fails
// the walk.
func Nil(c *Codec, p *any) {
	if c.d != nil {
		*p = nil
	} else if *p != nil {
		c.Fail(wireError("wire: a slot with no payload type holds a value"))
		return
	}
	c.Tag()
}
