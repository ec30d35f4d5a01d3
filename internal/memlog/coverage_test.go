package memlog

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestStoreAccessors(t *testing.T) {
	s := NewStore("label", Optimized)
	if s.Label() != "label" || s.Mode() != Optimized {
		t.Fatalf("accessors: %q %v", s.Label(), s.Mode())
	}
	NewCell(s, "a", 1)
	NewMap[int, int](s, "b")
	if want := []string{"a", "b"}; !reflect.DeepEqual(s.order, want) {
		t.Fatalf("registration order %v, want %v", s.order, want)
	}
}

func TestApproxSizeTypes(t *testing.T) {
	tests := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{true, 1},
		{int8(1), 1},
		{int16(1), 2},
		{int32(1), 4},
		{float32(1), 4},
		{int(1), 8},
		{int64(1), 8},
		{uint64(1), 8},
		{float64(1), 8},
		{"abc", 19},
		{[]byte("abcd"), 28},
		{struct{ X int }{}, 16}, // default estimate
	}
	for _, tt := range tests {
		if got := approxSize(tt.v); got != tt.want {
			t.Errorf("approxSize(%T) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestCorruptValueTypes(t *testing.T) {
	r := sim.NewRNG(3)
	for _, v := range []any{true, int(5), int32(5), int64(5), uint32(5), uint64(5), "text", ""} {
		nv, ok := corruptValue(v, r)
		if !ok {
			t.Errorf("corruptValue(%T) unsupported", v)
			continue
		}
		if nv == v {
			t.Errorf("corruptValue(%v) returned the same value", v)
		}
	}
	if _, ok := corruptValue(struct{}{}, r); ok {
		t.Error("corruptValue accepted a struct")
	}
}

// point is a struct element with a field list: corruptValue has no
// mutation for it.
type point struct{ X int }

func (p *point) Code(c *wire.Codec) { wire.Int(c, &p.X) }

func TestCorruptMapAndSlice(t *testing.T) {
	r := sim.NewRNG(9)

	s := NewStore("c", Optimized)
	m := NewMap[int, int](s, "m")
	m.Set(1, 100)
	if !m.corrupt(r) {
		t.Fatal("map corrupt reported false")
	}
	if v, ok := m.Get(1); ok && v == 100 {
		t.Fatal("map value neither changed nor dropped")
	}

	sl := NewSlice[int](s, "sl")
	if sl.corrupt(r) {
		t.Fatal("empty slice corrupted")
	}
	sl.Append(7)
	if !sl.corrupt(r) || sl.Get(0) == 7 {
		t.Fatal("slice corrupt had no effect")
	}

	// Uncorruptible value types: map drops the entry instead.
	m2 := NewMap[int, point](s, "m2")
	m2.Set(1, point{1})
	if !m2.corrupt(r) {
		t.Fatal("struct-valued map corrupt reported false")
	}
	if m2.Len() != 0 {
		t.Fatal("struct-valued map entry not dropped")
	}

	// A slice of uncorruptible values reports false.
	sl2 := NewSlice[point](s, "sl2")
	sl2.Append(point{})
	if sl2.corrupt(r) {
		t.Fatal("struct slice corrupted")
	}
}

func TestCorruptRandomEmptyStore(t *testing.T) {
	s := NewStore("empty", Optimized)
	if s.CorruptRandom(sim.NewRNG(1)) {
		t.Fatal("corrupted an empty store")
	}
}

func TestUndoTypeMismatchPanics(t *testing.T) {
	s := NewStore("x", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "c", 0)
	c.Set(1)
	// Old values are typed per container, so the one way to meet a wrong
	// type is a log handed to a store whose namesake holds another.
	other := NewStore("x", Optimized)
	NewCell(other, "c", "a string")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched undo did not panic")
		}
	}()
	s.TransferLog(other)
}

// A record whose entry is not the newest in its container's side log is
// a log out of step with the containers: it must fail loudly.
func TestUndoOutOfStepWithSideLogPanics(t *testing.T) {
	s := NewStore("x", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "c", 0)
	c.Set(1)
	c.Set(2)
	s.log = s.log[:1] // the newest record is gone, its side entry is not
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-step undo did not panic")
		}
	}()
	s.Rollback()
}

func TestRollbackUnknownContainerPanics(t *testing.T) {
	s := NewStore("x", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "c", 0)
	c.Set(1)
	s.log[0].entry = "ghost"
	defer func() {
		if recover() == nil {
			t.Fatal("unknown container undo did not panic")
		}
	}()
	s.Rollback()
}

func TestRedeclareSameTypeReturnsExisting(t *testing.T) {
	s := NewStore("x", Baseline)
	a := NewCell(s, "c", 5)
	b := NewCell(s, "c", 99) // returns existing, ignores init
	if a != b || b.Get() != 5 {
		t.Fatal("re-declaration did not return the existing cell")
	}
	m1 := NewMap[int, int](s, "m")
	m1.Set(1, 1)
	m2 := NewMap[int, int](s, "m")
	if m2.Len() != 1 {
		t.Fatal("re-declared map lost contents")
	}
	sl1 := NewSlice[int](s, "sl")
	sl1.Append(1)
	sl2 := NewSlice[int](s, "sl")
	if sl2.Len() != 1 {
		t.Fatal("re-declared slice lost contents")
	}
}

func TestRedeclareDifferentContainerKindPanics(t *testing.T) {
	s := NewStore("x", Baseline)
	NewMap[int, int](s, "thing")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	NewSlice[int](s, "thing")
}
