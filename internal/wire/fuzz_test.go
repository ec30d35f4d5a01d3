package wire_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	. "repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// fuzzTarget has a field of every kind the oracle (wiretest.Decode)
// supports.
type fuzzTarget struct {
	A bool
	B int8
	C int64
	D uint16
	E uint64
	F float32
	G float64
	H string
	I []byte
	J []inner
	K [2]int32
	L map[string]int64
	M map[uint8][]string
	N tinyEnum
}

// fuzzWide is fuzzTarget with every integer at full width: it reads the
// same bytes, and whatever fuzzTarget accepts it must accept as the same
// numbers.
type fuzzWide struct {
	A bool
	B int64
	C int64
	D uint64
	E uint64
	F float32
	G float64
	H string
	I []byte
	J []struct {
		Name  string
		Flags [3]int64
	}
	K [2]int64
	L map[string]int64
	M map[uint64][]string
	N int64
}

// encoded returns x's encoding, which must exist.
func encoded(t *testing.T, x any) []byte {
	t.Helper()
	e := NewEncoder()
	if err := wiretest.Encode(e, x); err != nil {
		t.Fatalf("a decoded %T does not encode: %v", x, err)
	}
	return e.Bytes()
}

// FuzzDecoderValue: any byte string decodes to a value or to an error —
// never a panic, never an allocation the input's size does not bound —
// and a value that decoded holds the numbers the bytes hold: it encodes
// to what the same bytes read at full width encode to. (A narrow kind
// that wrapped an out-of-range varint broke that.)
func FuzzDecoderValue(f *testing.F) {
	e := NewEncoder()
	wiretest.Encode(e, fuzzTarget{
		A: true, B: -1, C: -1 << 40, D: 9, E: 1 << 63, F: 1.5, G: -2.5, H: "h", I: []byte{1},
		J: []inner{{Name: "x"}}, K: [2]int32{1, 2}, L: map[string]int64{"a": 1},
		M: map[uint8][]string{3: {"s"}}, N: 7,
	})
	valid := e.Bytes()
	f.Add(valid)
	for cut := 0; cut < len(valid); cut += 5 {
		f.Add(valid[:cut])
	}
	// The crashers this target was written against: a collection length
	// of 2^63 or more at each collection field.
	huge := binary.AppendUvarint(nil, 1<<63+1)
	f.Add(huge)
	for _, at := range []int{24, 26, 40} {
		f.Add(append(append([]byte(nil), valid[:at]...), huge...))
	}
	// Varints the narrow kinds cannot hold: B (int8) at 1, D (uint16) at
	// 8, and as the elements of the []int32 read below.
	over := binary.AppendVarint(nil, 1<<40+7)
	f.Add(append(append(append([]byte(nil), valid[:1]...), over...), valid[2:]...))
	f.Add(append(append(append([]byte(nil), valid[:8]...), binary.AppendUvarint(nil, 1<<16+9)...), valid[9:]...))
	f.Add(append(binary.AppendUvarint(nil, 2), over...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out fuzzTarget
		if wiretest.Decode(NewDecoder(data), &out) == nil {
			var wide fuzzWide
			if err := wiretest.Decode(NewDecoder(data), &wide); err != nil {
				t.Fatalf("decodes narrow but not wide: %v", err)
			}
			if narrow, full := encoded(t, out), encoded(t, wide); !bytes.Equal(narrow, full) {
				t.Fatalf("the narrow value encodes to\n%x\nthe bytes it was read from hold\n%x", narrow, full)
			}
		}
		var s []int32
		if wiretest.Decode(NewDecoder(data), &s) == nil {
			var wide []int64
			if err := wiretest.Decode(NewDecoder(data), &wide); err != nil || !bytes.Equal(encoded(t, s), encoded(t, wide)) {
				t.Fatalf("[]int32 %v, []int64 %v (%v)", s, wide, err)
			}
		}
		wiretest.DecodeAny(NewDecoder(data))
		var aux any
		Tagged(Decoding(NewDecoder(data)), &aux, "[]string", Elems[string])
	})
}
