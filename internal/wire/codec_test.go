package wire_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/sim"
	. "repro/internal/wire"
	"repro/internal/wire/wiretest"
)

type codecEnum int32

type codecCycles uint64

// codecRecord has one field per Codec entry point; code is its field
// list.
type codecRecord struct {
	flag   bool
	count  uint64
	crc    uint32
	name   string
	text   []byte
	blob   []byte
	aux    any
	plain  inner
	kind   codecEnum
	offset int
	when   codecCycles
	tags   []string
	parts  []inner
	nested inner
}

func (r *codecRecord) code(c *Codec) {
	c.Bool(&r.flag)
	c.Uvarint(&r.count)
	c.U32(&r.crc)
	c.Str(&r.name)
	c.StrBytes(&r.text)
	c.Blob(&r.blob)
	Tagged(c, &r.aux, "[]string", Elems[string])
	codeInner(c, &r.plain)
	Int(c, &r.kind)
	Int(c, &r.offset)
	Fixed64(c, &r.when)
	Slice(c, &r.tags, (*Codec).Str)
	Slice(c, &r.parts, codeInner)
	c.BlobOf(func(c *Codec) { codeInner(c, &r.nested) })
}

// codeInner is inner's field list, in the oracle's form.
func codeInner(c *Codec, p *inner) {
	c.Str(&p.Name)
	Ints(c, p.Flags[:])
}

func codecSample() codecRecord {
	return codecRecord{
		flag: true, count: 1 << 40, crc: 0xdeadbeef, name: "n", text: []byte("lent"), blob: []byte{},
		aux: []string{"argv0"}, plain: inner{Name: "p", Flags: [3]int32{1, -2, 3}},
		kind: -7, offset: -1 << 40, when: 1 << 63, tags: []string{"a", ""},
		parts: []inner{{Name: "x"}}, nested: inner{Name: "blob", Flags: [3]int32{4, 5, -6}},
	}
}

// TestCodecMatchesEncoder: the list, encoding, writes exactly what the
// Encoder calls of the same names write; decoding, it reads them back.
func TestCodecMatchesEncoder(t *testing.T) {
	in := codecSample()
	e := NewEncoder()
	c := Encoding(e)
	if in.code(c); c.Err() != nil {
		t.Fatalf("encode: %v", c.Err())
	}

	want := NewEncoder()
	want.Bool(in.flag)
	want.Uvarint(in.count)
	want.U32(in.crc)
	want.Str(in.name)
	want.Str(string(in.text))
	want.Blob(in.blob)
	wiretest.EncodeAny(want, in.aux)
	wiretest.Encode(want, in.plain)
	want.Varint(int64(in.kind))
	want.Varint(int64(in.offset))
	want.U64(uint64(in.when))
	want.Uvarint(uint64(len(in.tags)))
	for _, tag := range in.tags {
		want.Str(tag)
	}
	want.Uvarint(uint64(len(in.parts)))
	for _, p := range in.parts {
		wiretest.Encode(want, p)
	}
	blob := NewEncoder()
	wiretest.Encode(blob, in.nested)
	want.Blob(blob.Bytes())
	if !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatalf("codec wrote\n%x\nencoder wrote\n%x", e.Bytes(), want.Bytes())
	}

	var out codecRecord
	d := NewDecoder(e.Bytes())
	c = Decoding(d)
	if out.code(c); c.Err() != nil {
		t.Fatalf("decode: %v", c.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left", d.Remaining())
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

// StrBytes codes a byte slice as Str codes the string of its bytes, in
// every direction: nil and empty alike, as the empty string, which decodes
// as nil; anything else as its bytes, decoded into a copy of its own.
func TestStrBytesMatchesStr(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("pipe"), 100)} {
		s := string(b)
		want, got := NewEncoder(), NewEncoder()
		Encoding(want).Str(&s)
		Encoding(got).StrBytes(&b)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("StrBytes(%q) writes %x, Str %x", b, got.Bytes(), want.Bytes())
		}
		hs, hb := Hashing(sim.NewHash()), Hashing(sim.NewHash())
		hs.Str(&s)
		hb.StrBytes(&b)
		if hb.Sum() != hs.Sum() {
			t.Fatalf("StrBytes(%q) hashes apart from Str", b)
		}
		stream := got.Bytes()
		var back []byte
		d := NewDecoder(stream)
		if Decoding(d).StrBytes(&back); d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("decode of %x: %v, %d bytes left", stream, d.Err(), d.Remaining())
		}
		if string(back) != s || (len(s) == 0) != (back == nil) {
			t.Fatalf("%x decodes as %#v, want %q (nil when empty)", stream, back, s)
		}
		if len(back) > 0 {
			back[0]++
			if stream[len(stream)-len(back)] == back[0] {
				t.Fatal("a decoded slice aliases the stream")
			}
		}
	}
}

// TestCodecErrorsAreSticky: a decode that runs off the stream, a count
// the stream cannot hold and an unencodable payload each surface from
// Err after the whole list has been walked, without a panic.
func TestCodecErrorsAreSticky(t *testing.T) {
	in := codecSample()
	e := NewEncoder()
	in.code(Encoding(e))
	for cut := 0; cut < e.Len(); cut++ {
		var out codecRecord
		c := Decoding(NewDecoder(e.Bytes()[:cut]))
		if out.code(c); c.Err() == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, e.Len())
		}
	}

	for _, n := range []uint64{3, 1 << 40, 1<<63 + 1} {
		var tags []string
		c := Decoding(NewDecoder(binary.AppendUvarint(nil, n)))
		if Slice(c, &tags, (*Codec).Str); c.Err() == nil {
			t.Errorf("count %d accepted over an empty stream", n)
		}
	}

	in.aux = func() {}
	c := Encoding(NewEncoder())
	if in.code(c); c.Err() == nil {
		t.Fatal("a func in a []string slot encoded without error")
	}
}

// A map is written in ascending key order and read back only in it: a
// key the stream repeats or puts out of order is refused, not folded
// into the map — {5:1, 5:2} read as {5:2} would encode to other bytes.
func TestMapKeysMustAscend(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte // head (count+1), then key, value pairs as zig-zag varints
		ok   bool
	}{
		{"ascending", []byte{0x03, 0x0a, 0x02, 0x0c, 0x04}, true},
		{"repeated", []byte{0x03, 0x0a, 0x02, 0x0a, 0x04}, false},
		{"out of order", []byte{0x03, 0x0c, 0x04, 0x0a, 0x02}, false},
	} {
		var got map[int]int
		d := NewDecoder(tc.data)
		Map(Decoding(d), &got, Int[int], Int[int])
		if ok := d.Err() == nil && d.Remaining() == 0; ok != tc.ok {
			t.Errorf("%s: decoded %v, error %v; want accepted %v", tc.name, got, d.Err(), tc.ok)
		}
	}
}

// A retired slot has no value: it codes as one false byte, in every
// direction the oracle's, and a decode refuses any other byte.
func TestRetiredSlot(t *testing.T) {
	var r Retired
	e := NewEncoder()
	if r.Code(Encoding(e)); !bytes.Equal(e.Bytes(), []byte{0}) {
		t.Fatalf("a retired slot encodes as %x, want 00", e.Bytes())
	}
	for _, b := range []byte{1, 2, 0xff} {
		d := NewDecoder([]byte{b})
		if r.Code(Decoding(d)); d.Err() == nil {
			t.Errorf("a retired slot holding %#x decoded", b)
		}
	}
	wiretest.SameAsValue(t, wiretest.Random[retiredRecord])
	if err := wiretest.Decode(NewDecoder([]byte{0x02, 0x01, 0x00}), new(retiredRecord)); err == nil {
		t.Error("the oracle decoded a retired slot holding true")
	}
}

// retiredRecord keeps a retired slot between two live fields.
type retiredRecord struct {
	A int
	R Retired
	B bool
}

func (r *retiredRecord) Code(c *Codec) {
	Int(c, &r.A)
	r.R.Code(c)
	c.Bool(&r.B)
}
