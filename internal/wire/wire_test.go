package wire_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	. "repro/internal/wire"
	"repro/internal/wire/wiretest"
)

type tinyEnum int32

type inner struct {
	Name  string
	Flags [3]int32
}

type outer struct {
	A    bool
	B    int64
	C    uint16
	D    float64
	E    string
	F    []byte
	G    []inner
	H    map[string]int64
	I    map[int64]string
	Kind tinyEnum
}

func sample() outer {
	return outer{
		A:    true,
		B:    -987654321,
		C:    65535,
		D:    math.Pi,
		E:    "hello\x00world",
		F:    []byte{0, 1, 2, 255},
		G:    []inner{{Name: "x", Flags: [3]int32{1, -2, 3}}, {Name: ""}},
		H:    map[string]int64{"a": 1, "b": -2, "": 3},
		I:    map[int64]string{-5: "neg", 0: "zero", 9: "nine"},
		Kind: 7,
	}
}

func TestValueRoundTrip(t *testing.T) {
	in := sample()
	e := NewEncoder()
	if err := wiretest.Encode(e, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out outer
	d := NewDecoder(e.Bytes())
	if err := wiretest.Decode(d, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("trailing bytes: %d", d.Remaining())
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	// Build the same logical map with different insertion histories.
	m1 := map[string]int64{}
	m2 := map[string]int64{}
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i, k := range keys {
		m1[k] = int64(i)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		m2[keys[i]] = int64(i)
	}
	e1, e2 := NewEncoder(), NewEncoder()
	if err := wiretest.Encode(e1, m1); err != nil {
		t.Fatal(err)
	}
	if err := wiretest.Encode(e2, m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Fatal("map encoding depends on insertion order")
	}
}

func TestNilVersusEmpty(t *testing.T) {
	type s struct {
		B []byte
		S []int64
		M map[string]int64
	}
	for _, in := range []s{
		{},
		{B: []byte{}, S: []int64{}, M: map[string]int64{}},
	} {
		e := NewEncoder()
		if err := wiretest.Encode(e, in); err != nil {
			t.Fatal(err)
		}
		var out s
		if err := wiretest.Decode(NewDecoder(e.Bytes()), &out); err != nil {
			t.Fatal(err)
		}
		if (in.B == nil) != (out.B == nil) || (in.S == nil) != (out.S == nil) || (in.M == nil) != (out.M == nil) {
			t.Fatalf("nilness lost: in %+v out %+v", in, out)
		}
	}
}

func TestUnsupportedKinds(t *testing.T) {
	e := NewEncoder()
	if err := wiretest.Encode(e, func() {}); err == nil {
		t.Fatal("func encoded without error")
	}
	if err := wiretest.Encode(e, make(chan int)); err == nil {
		t.Fatal("chan encoded without error")
	}
	x := 3
	if err := wiretest.Encode(e, &x); err == nil {
		t.Fatal("pointer encoded without error")
	}
	type hidden struct{ a int } //nolint:unused
	if err := wiretest.Encode(e, hidden{}); err == nil {
		t.Fatal("unexported field encoded without error")
	}
	_ = hidden{a: 0}
}

func TestTruncatedStream(t *testing.T) {
	in := sample()
	e := NewEncoder()
	if err := wiretest.Encode(e, in); err != nil {
		t.Fatal(err)
	}
	full := e.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		var out outer
		d := NewDecoder(full[:cut])
		if err := wiretest.Decode(d, &out); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
}

func TestCorruptBoolByte(t *testing.T) {
	d := NewDecoder([]byte{7})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("bad bool byte accepted")
	}
}

// A varint has one form, its shortest: a longer one — a last byte of
// zero after the first — is refused, so that whatever decodes encodes
// back to the bytes it was read from. An element of a slice goes through
// the same reader.
func TestOverlongVarintRejected(t *testing.T) {
	for _, stream := range [][]byte{{0x80, 0x00}, {0x85, 0x80, 0x00}, {0xff, 0x00}} {
		if d := NewDecoder(stream); d.Uvarint() != 0 || d.Err() == nil {
			t.Errorf("% x read as a varint", stream)
		}
		var frames []int32
		c := Decoding(NewDecoder(append([]byte{2}, stream...)))
		if Elems(c, &frames); c.Err() == nil {
			t.Errorf("% x read as a frame %v", stream, frames)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64} {
		if d := NewDecoder(binary.AppendUvarint(nil, v)); d.Uvarint() != v || d.Err() != nil {
			t.Errorf("%d does not read back: %v", v, d.Err())
		}
	}
}

type regPayload struct {
	N int64
	S string
}

func TestAnyRegistry(t *testing.T) {
	wiretest.Register("wire-test.regPayload", regPayload{})

	for _, in := range []any{
		nil,
		[]string{"a", "b"},
		regPayload{N: 42, S: "hi"},
	} {
		e := NewEncoder()
		if err := wiretest.EncodeAny(e, in); err != nil {
			t.Fatalf("Any(%v): %v", in, err)
		}
		out, err := wiretest.DecodeAny(NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("decode Any(%v): %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("Any round trip: in %v out %v", in, out)
		}
	}

	e := NewEncoder()
	if err := wiretest.EncodeAny(e, struct{ X func() }{}); err == nil {
		t.Fatal("unregistered type encoded without error")
	}
}

func TestHugeLengthPrefixRejected(t *testing.T) {
	// A length prefix beyond the remaining bytes must fail cleanly rather
	// than allocate or loop — also one of 2^63 or more, which is negative
	// as an int and once reached reflect.MakeSlice as a capacity.
	for _, n := range []uint64{1 << 40, 1<<63 + 1, math.MaxUint64} {
		stream := binary.AppendUvarint(nil, n)
		for _, out := range []any{new([]int64), new([]int32), new([]inner), new(map[int64]string)} {
			if err := wiretest.Decode(NewDecoder(stream), out); err == nil {
				t.Errorf("length prefix %d accepted into %T", n, out)
			}
		}
	}
}

// TestIntegerOverflowRejected: a varint the target kind cannot hold is a
// decode error. It used to wrap — 1<<40+7 read into an int32 as 7, 300
// into a uint8 as 44 — and a value that wrapped no longer encodes to the
// bytes it came from.
func TestIntegerOverflowRejected(t *testing.T) {
	big, wide := binary.AppendVarint(nil, 1<<40+7), binary.AppendUvarint(nil, 300)

	var i32 int32
	if err := wiretest.Decode(NewDecoder(big), &i32); err == nil {
		t.Errorf("Value: 1<<40+7 decoded into an int32 as %d", i32)
	}
	var u8 uint8
	if err := wiretest.Decode(NewDecoder(wide), &u8); err == nil {
		t.Errorf("Value: 300 decoded into a uint8 as %d", u8)
	}
	var kind tinyEnum
	if c := Decoding(NewDecoder(big)); true {
		if Int(c, &kind); c.Err() == nil {
			t.Errorf("Int: 1<<40+7 decoded into an int32 kind as %d", kind)
		}
	}
	var u16 uint16
	if c := Decoding(NewDecoder(binary.AppendUvarint(nil, 1<<16))); true {
		if Uint(c, &u16); c.Err() == nil {
			t.Errorf("Uint: 1<<16 decoded into a uint16 as %d", u16)
		}
	}
	// The loops of Elems: one element out of range among good ones.
	var frames []int32
	stream := append(binary.AppendVarint(binary.AppendUvarint(nil, 3), 5), big...)
	if c := Decoding(NewDecoder(stream)); true {
		if Elems(c, &frames); c.Err() == nil {
			t.Errorf("Elems: 1<<40+7 decoded into a []int32 as %v", frames)
		}
	}
	var ports []uint16
	stream = append(binary.AppendUvarint(binary.AppendUvarint(nil, 3), 5), binary.AppendUvarint(nil, 1<<16)...)
	if c := Decoding(NewDecoder(stream)); true {
		if Elems(c, &ports); c.Err() == nil {
			t.Errorf("Elems: 1<<16 decoded into a []uint16 as %v", ports)
		}
	}

	// The ends of each range still decode, and encode back to their bytes.
	type ends struct {
		A, B int32
		C    uint8
		D, E int8
	}
	in := ends{math.MinInt32, math.MaxInt32, math.MaxUint8, math.MinInt8, math.MaxInt8}
	e := NewEncoder()
	if err := wiretest.Encode(e, in); err != nil {
		t.Fatal(err)
	}
	var out ends
	if err := wiretest.Decode(NewDecoder(e.Bytes()), &out); err != nil || out != in {
		t.Errorf("range ends: decoded %+v (%v), want %+v", out, err, in)
	}
}
