package wire_test

import (
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

type kind int32

// coded is a struct that lists its own fields, every kind a store
// element uses: the Coder route of Elem and Elems.
type coded struct {
	ID    int64
	Kind  kind
	Name  string
	Live  bool
	Slots [4]int32
}

func (x *coded) Code(c *wire.Codec) {
	wire.Int(c, &x.ID)
	wire.Int(c, &x.Kind)
	c.Str(&x.Name)
	c.Bool(&x.Live)
	wire.Ints(c, x.Slots[:])
}

// uncoded is the same struct without a list.
type uncoded struct {
	ID    int64
	Kind  kind
	Name  string
	Live  bool
	Slots [4]int32
}

// TestElemMatchesValue: every typed route of Elem and Elems writes the
// bytes Value writes and reads them back, and every other type goes
// through Value itself and says so.
func TestElemMatchesValue(t *testing.T) {
	wiretest.SameAsValue(t, true, wiretest.Random[bool])
	wiretest.SameAsValue(t, true, wiretest.Random[string])
	wiretest.SameAsValue(t, true, wiretest.Random[[]byte])
	wiretest.SameAsValue(t, true, wiretest.Random[int])
	wiretest.SameAsValue(t, true, wiretest.Random[int8])
	wiretest.SameAsValue(t, true, wiretest.Random[int16])
	wiretest.SameAsValue(t, true, wiretest.Random[int32])
	wiretest.SameAsValue(t, true, wiretest.Random[int64])
	wiretest.SameAsValue(t, true, wiretest.Random[uint])
	wiretest.SameAsValue(t, true, wiretest.Random[uint8])
	wiretest.SameAsValue(t, true, wiretest.Random[uint16])
	wiretest.SameAsValue(t, true, wiretest.Random[uint32])
	wiretest.SameAsValue(t, true, wiretest.Random[uint64])
	wiretest.SameAsValue(t, true, wiretest.Random[coded])

	wiretest.SameAsValue(t, false, wiretest.Random[kind])
	wiretest.SameAsValue(t, false, wiretest.Random[float64])
	wiretest.SameAsValue(t, false, wiretest.Random[uncoded])
}
