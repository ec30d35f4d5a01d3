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

// TestElemMatchesValue: every route of Elem and Elems writes the bytes
// the reflective oracle writes and reads them back, and every other type
// has no route and says so.
func TestElemMatchesValue(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[bool])
	wiretest.SameAsValue(t, wiretest.Random[string])
	wiretest.SameAsValue(t, wiretest.Random[[]byte])
	wiretest.SameAsValue(t, wiretest.Random[int])
	wiretest.SameAsValue(t, wiretest.Random[int8])
	wiretest.SameAsValue(t, wiretest.Random[int16])
	wiretest.SameAsValue(t, wiretest.Random[int32])
	wiretest.SameAsValue(t, wiretest.Random[int64])
	wiretest.SameAsValue(t, wiretest.Random[uint])
	wiretest.SameAsValue(t, wiretest.Random[uint8])
	wiretest.SameAsValue(t, wiretest.Random[uint16])
	wiretest.SameAsValue(t, wiretest.Random[uint32])
	wiretest.SameAsValue(t, wiretest.Random[uint64])
	wiretest.SameAsValue(t, wiretest.Random[coded])

	if wire.Typed[kind]() || wire.Typed[float64]() || wire.Typed[uncoded]() {
		t.Error("wire.Typed claims a route for a named kind, a float or a struct without a list")
	}
}

// TestHashingCoversEveryKind: the hashing route of every kind an element
// can be sees each of its leaves.
func TestHashingCoversEveryKind(t *testing.T) {
	wiretest.HashCovers[bool](t)
	wiretest.HashCovers[string](t)
	wiretest.HashCovers[[]byte](t)
	wiretest.HashCovers[int](t)
	wiretest.HashCovers[int8](t)
	wiretest.HashCovers[int16](t)
	wiretest.HashCovers[int32](t)
	wiretest.HashCovers[int64](t)
	wiretest.HashCovers[uint](t)
	wiretest.HashCovers[uint8](t)
	wiretest.HashCovers[uint16](t)
	wiretest.HashCovers[uint32](t)
	wiretest.HashCovers[uint64](t)
	wiretest.HashCovers[coded](t)
}
