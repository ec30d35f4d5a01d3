package wire

import (
	"strconv"

	"repro/internal/sim"
)

// Typed element codecs. A container of values of one type T (memlog's
// Cell, Map and Slice) codes them through Elem and Items: a type switch
// picks the route, per value for Elem and per run of elements for Items —
// a loop of its own for each primitive kind, the type's field list for a
// Coder. A type with neither has no route, and memlog refuses to build a
// container of it. The bytes of every route are those the reflective
// oracle in wiretest gives a T; the equivalence tests hold every route to
// them.

// Coder is a struct that lists its fields over a Codec — on the pointer,
// every field, in declaration order, each in the form of its kind
// (wire.Int for any signed kind, Codec.Str for a string, wire.Map for a
// map, ...) — so that the one list encodes, decodes and feeds the
// fingerprint. A type that keeps the layout of an earlier declaration
// lists that layout instead (fs.Inode), and its test holds the list to a
// mirror of that declaration.
type Coder interface{ Code(*Codec) }

// Typed reports whether Elem and Elems have a route of their own for T:
// bool, string, []byte, the integers of every width, and every Coder.
func Typed[T any]() bool {
	switch any((*T)(nil)).(type) {
	case *bool, *string, *[]byte,
		*int, *int8, *int16, *int32, *int64,
		*uint, *uint8, *uint16, *uint32, *uint64,
		Coder:
		return true
	}
	return false
}

// Elem codes one T.
func Elem[T any](c *Codec, p *T) {
	switch p := any(p).(type) {
	case *bool:
		c.Bool(p)
	case *string:
		c.Str(p)
	case *[]byte:
		c.Blob(p)
	case *int:
		Int(c, p)
	case *int8:
		Int(c, p)
	case *int16:
		Int(c, p)
	case *int32:
		Int(c, p)
	case *int64:
		Int(c, p)
	case *uint:
		Uint(c, p)
	case *uint8:
		Uint(c, p)
	case *uint16:
		Uint(c, p)
	case *uint32:
		Uint(c, p)
	case *uint64:
		c.Uvarint(p)
	case Coder:
		p.Code(c)
	default:
		c.Fail(wireError("wire: an element type with no codec (Typed is false)"))
	}
}

// Elems codes a whole []T in the slice form — 0 for nil, else the count
// plus one and the elements, as Items codes them (a []byte is then one
// blob).
func Elems[T any](c *Codec, s *[]T) {
	Items(c, (*s)[:sliceHead(c, s)])
}

// Items codes every element of s in place and without a count: a slice
// whose head is already coded, or a part of one. A []byte goes as its
// bytes, each signed integer kind through Ints (the frame tables and free
// lists of the stores), every other T through Elem an element.
func Items[T any](c *Codec, s []T) {
	switch p := any(&s).(type) {
	case *[]byte:
		c.bytes(*p)
	case *[]int:
		Ints(c, *p)
	case *[]int8:
		Ints(c, *p)
	case *[]int16:
		Ints(c, *p)
	case *[]int32:
		Ints(c, *p)
	case *[]int64:
		Ints(c, *p)
	default:
		for i := 0; i < len(s) && c.Err() == nil; i++ {
			Elem(c, &s[i])
		}
	}
}

// ItemsSum hashes s as Items codes it, into a hash of its own, and
// returns that hash's sum; c, which must be a hashing codec, keeps its
// own hash as it was. It is what a container that hashes in parts caches
// a part by (memlog's pages), so that it hashes again only the parts that
// changed.
func ItemsSum[T any](c *Codec, s []T) uint64 {
	outer := c.h
	c.h = sim.NewHash()
	Items(c, s)
	sum := c.h.Sum()
	c.h = outer
	return sum
}

// Ints codes every element of s in place, as Int does and without a
// count: the elements of an array, or of a slice whose head is already
// coded. It is the loop a frame table of sixteen thousand int32 goes
// through on every encode, decode and fingerprint, so the buffer and the
// offset, or the hash, are held in locals (a store to e.buf an element is
// a GC write barrier an element).
func Ints[T signed](c *Codec, s []T) {
	if c.hashing {
		h := c.h
		for _, v := range s {
			h.Word(zigzag(int64(v)))
		}
		c.h = h
		return
	}
	if c.d == nil {
		c.e.Grow(len(s)) // an array: no Len or sliceHead has made room
		buf := c.e.buf
		for _, v := range s {
			buf = appendUvarint(buf, zigzag(int64(v)))
		}
		c.e.buf = buf
		return
	}
	d, off := c.d, c.d.off
	if d.err != nil {
		return
	}
	for i := range s {
		u, w := uvarint(d.buf[off:])
		if w <= 0 {
			d.fail(errTruncated)
			break
		}
		off += w
		v := unzigzag(u)
		if s[i] = T(v); int64(s[i]) != v {
			d.fail(overflow(strconv.FormatInt(v, 10)))
			break
		}
	}
	d.off = off
}

// IntsPrefix codes *p as the n elements of an array held as its prefix:
// the elements of *p as Ints codes them, then a zero for every element
// past its end, so a table that keeps only its prefix codes and hashes as
// the whole array does. The zero tail hashes in closed form (a zero is
// one multiply by the prime, sim.Hash.Zeros). Decoding, it reads n
// elements and sets *p to a fresh slice cut after the last non-zero one,
// its capacity clipped, or to nil when every element is zero. A *p longer
// than n is an error.
func IntsPrefix[T signed](c *Codec, p *[]T, n int) {
	if c.d != nil {
		var small [64]T // room for an inode's table without a heap array
		s := small[:0]
		if n <= len(small) {
			s = small[:n]
		} else {
			s = make([]T, n)
		}
		Ints(c, s)
		k := n
		for k > 0 && s[k-1] == 0 {
			k--
		}
		*p = nil
		if c.Err() == nil && k > 0 {
			*p = make([]T, k)
			copy(*p, s)
		}
		return
	}
	s := *p
	if len(s) > n {
		c.Fail(wireError("wire: a prefix of " + strconv.Itoa(len(s)) + " elements of an array of " + strconv.Itoa(n)))
		return
	}
	Ints(c, s)
	if c.hashing {
		c.h.Zeros(n - len(s))
		return
	}
	c.e.buf = append(c.e.buf, make([]byte, n-len(s))...) // zigzag(0) is the one-byte varint 0
}

// sliceHead codes the head of the slice form and returns how many
// elements follow, to be coded in place. Decoding, it sets *p to a slice
// of exactly the count the stream holds, or to nil.
func sliceHead[T any](c *Codec, p *[]T) int {
	some, n := c.Head(*p != nil, len(*p))
	if c.d != nil {
		*p = nil
		if some {
			*p = make([]T, n)
		}
	}
	return n
}
