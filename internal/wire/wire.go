// Package wire is the deterministic binary codec under the on-disk
// image format (internal/image) and the persistent store images
// (internal/memlog). The encoder and decoder agree on the type of every
// value out of band — the code that reads a record is the code that
// wrote it — so the stream carries no schema, and encoding the same
// value twice always yields the same bytes: maps go out in sorted key
// order, everything else in the order its field list names it, and
// nothing depends on timestamps, pointer identity or iteration order.
//
// A type lists its fields once, over a Codec (codec.go): the same list
// encodes and decodes, so the two directions cannot disagree. Containers
// of many values of one type code them through Elem and Elems (elem.go),
// which have a route of their own for the primitive kinds and call the
// list of every other element type. An interface slot is closed: its
// code names the one type it takes (Tagged) or that it takes none (Nil),
// and anything else fails the walk. There is no registry of types and no
// reflection; decoding reads only what a list asks for.
//
// The Go-type-directed definition of these bytes is the reflective walk
// in wiretest, a test oracle that every field list is held to.
package wire

import (
	"slices"
	"strconv"
)

// wireError is the type of the package's errors, so that the fixed ones
// can be constants.
type wireError string

func (e wireError) Error() string { return string(e) }

const errTruncated = wireError("wire: truncated stream")

// Encoder appends values to an in-memory buffer.
type Encoder struct {
	buf   []byte
	codec Codec // what Encoding returns: no allocation of its own
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded stream. The slice aliases the encoder's
// buffer; it is valid until the next write.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow makes room for n more bytes, so that a writer who knows what is
// coming pays for one buffer instead of append's regrowths (a quarter at
// a time on a large buffer: five times the final size in all). It grows
// by at least what the buffer holds, so many small calls stay linear.
func (e *Encoder) Grow(n int) {
	if n > cap(e.buf)-len(e.buf) {
		e.buf = slices.Grow(e.buf, max(n, cap(e.buf)))
	}
}

// Bool appends a single-byte boolean.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) {
	e.buf = appendUvarint(e.buf, u)
}

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) { e.Uvarint(zigzag(v)) }

// U32 appends a fixed-width little-endian uint32.
func (e *Encoder) U32(u uint32) {
	e.buf = append(e.buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(u uint64) {
	e.buf = append(e.buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice. nil and empty are
// distinguished so decode reproduces the original exactly.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(blobHead(b))
	e.buf = append(e.buf, b...)
}

// The varint forms are encoding/binary's, byte for byte, spelled out
// because that package (like fmt) pulls reflect into every binary that
// imports this one. A signed value is zig-zagged onto an unsigned one.

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// uvarint decodes a varint from the front of buf and returns it with the
// number of bytes read: 0 when buf ends first, negative when the value
// overflows 64 bits or is not in its shortest form — a last byte of zero
// after the first, which appendUvarint never writes, so that whatever
// decodes encodes back to the bytes it came from.
func uvarint(buf []byte) (uint64, int) {
	var x uint64
	for i, b := range buf {
		if i == 9 && b > 1 {
			return 0, -(i + 1)
		}
		if x |= uint64(b&0x7f) << (7 * i); b < 0x80 {
			if b == 0 && i > 0 {
				return 0, -(i + 1)
			}
			return x, i + 1
		}
	}
	return 0, 0
}

// Decoder consumes a stream produced by Encoder. Errors are sticky:
// after the first malformed read every subsequent read reports it, so
// call sites can decode a whole record and check Err once.
type Decoder struct {
	buf   []byte
	off   int
	err   error
	codec Codec // what Decoding returns: no allocation of its own
}

// NewDecoder returns a decoder over buf. Decoded strings and byte
// slices are copied out of buf; the one read that aliases it is Take, so
// a caller who has used Take (the framing layers, and the disk image for
// its blocks) must leave buf alone for as long as what Take returned
// lives. Everyone else may recycle buf once decoding completes.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if len(b) == 1 && b[0] > 1 {
		d.fail(wireError("wire: bad bool byte " + strconv.Itoa(int(b[0]))))
		return false
	}
	return len(b) == 1 && b[0] == 1
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.off += n
	return u
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 { return unzigzag(d.Uvarint()) }

// U32 reads a fixed-width uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if len(b) < 4 {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a fixed-width uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if len(b) < 8 {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// take consumes n bytes, validating against the remaining length.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(errTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	return string(d.take(d.Uvarint()))
}

// strBytes reads a length-prefixed string as a fresh byte slice, nil
// when empty (Codec.StrBytes).
func (d *Decoder) strBytes() []byte {
	return append([]byte(nil), d.take(d.Uvarint())...)
}

// Take consumes exactly n bytes and returns them WITHOUT copying — the
// slice aliases the decoder's buffer. It exists for framing layers
// that carve whole sub-payloads out of a stream and hand them to
// sub-decoders; use Blob for ordinary length-prefixed byte fields.
func (d *Decoder) Take(n int) []byte {
	return d.take(uint64(n)) // a negative n is past any buffer's end
}

// Blob reads a length-prefixed byte slice (a copy, never aliasing the
// decoder's buffer).
func (d *Decoder) Blob() []byte {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	b := d.take(n - 1)
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// count validates an element count read from the stream and returns it
// as the length to allocate. Every element occupies at least one byte
// (nothing zero-width crosses the wire), so a count beyond the bytes left
// is a lie: it fails the decode here, before anything is allocated or
// looped over, and a count that passes sizes its collection exactly — the
// input's length bounds it. The comparison is on the uint64: a count of
// 2^63 or more must not reach an int.
func (d *Decoder) count(n uint64) int {
	if n > uint64(d.Remaining()) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}
