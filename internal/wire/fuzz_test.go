package wire

import (
	"encoding/binary"
	"testing"
)

// fuzzTarget has a field of every kind Decoder.Value supports.
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

// FuzzDecoderValue: any byte string decodes to a value or to an error —
// never a panic, never an allocation the input's size does not bound.
func FuzzDecoderValue(f *testing.F) {
	e := NewEncoder()
	e.Encode(fuzzTarget{
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var out fuzzTarget
		NewDecoder(data).Decode(&out)
		var s []int32
		NewDecoder(data).Decode(&s)
		NewDecoder(data).Any()
	})
}
