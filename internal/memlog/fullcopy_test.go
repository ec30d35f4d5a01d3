package memlog

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// bothCheckpoints runs fn over a fresh FullCopy store under each charge
// rule: the FullCopy contract holds under the legacy full-copy charge
// exactly as under the incremental default.
func bothCheckpoints(t *testing.T, fn func(t *testing.T, s *Store)) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			s := NewStore("fc", FullCopy)
			s.SetLegacyCheckpoint(legacy)
			fn(t, s)
		})
	}
}

func TestFullCopyCheckpointRollback(t *testing.T) {
	bothCheckpoints(t, testFullCopyCheckpointRollback)
}

func testFullCopyCheckpointRollback(t *testing.T, s *Store) {
	var charged sim.Cycles
	s.SetCostSink(func(n sim.Cycles) { charged += n })
	counters := sim.NewCounters()
	s.SetCounters(counters)
	s.SetLogging(true)
	c := NewCell(s, "x", 1)
	m := NewMap[int, string](s, "m")
	m.Set(1, "one")

	s.Checkpoint()
	charged = 0
	c.Set(99)
	m.Set(1, "mutated")
	m.Set(2, "new")

	// The undo records of a FullCopy window stand in for the copy the
	// checkpoint charged for: they cost and count nothing.
	if charged != 0 || counters.Get("memlog.stores_logged") != 0 || s.LogBytes() != 0 || s.Logging() {
		t.Fatalf("FullCopy stores charged %d cycles, counted %d logged, %d log bytes, Logging() = %v; want none",
			charged, counters.Get("memlog.stores_logged"), s.LogBytes(), s.Logging())
	}
	s.Rollback()
	if c.Get() != 1 {
		t.Fatalf("cell = %d, want 1", c.Get())
	}
	if v, _ := m.Get(1); v != "one" {
		t.Fatalf("m[1] = %q, want one", v)
	}
	if _, ok := m.Get(2); ok {
		t.Fatal("m[2] survived rollback")
	}
}

func TestFullCopyChargesPerCheckpoint(t *testing.T) {
	bothCheckpoints(t, testFullCopyChargesPerCheckpoint)
}

func testFullCopyChargesPerCheckpoint(t *testing.T, s *Store) {
	var charged sim.Cycles
	s.SetCostSink(func(n sim.Cycles) { charged += n })
	sl := NewSlice[int64](s, "arena")
	for i := 0; i < 1000; i++ {
		sl.Append(int64(i))
	}
	if charged != 0 {
		t.Fatalf("FullCopy charged %d for plain stores", charged)
	}
	s.SetLogging(true)
	s.Checkpoint()
	if charged < 1000 {
		t.Fatalf("checkpoint charged only %d cycles for an 8000-byte section", charged)
	}
}

func TestFullCopyWindowClosedTakesNoSnapshot(t *testing.T) {
	bothCheckpoints(t, testFullCopyWindowClosedTakesNoSnapshot)
}

func testFullCopyWindowClosedTakesNoSnapshot(t *testing.T, s *Store) {
	var charged sim.Cycles
	s.SetCostSink(func(n sim.Cycles) { charged += n })
	NewCell(s, "x", 0)
	s.SetLogging(false)
	s.Checkpoint()
	if charged != 0 {
		t.Fatalf("closed-window checkpoint charged %d", charged)
	}
}

func TestFullCopyDiscardDropsSnapshot(t *testing.T) {
	bothCheckpoints(t, testFullCopyDiscardDropsSnapshot)
}

func testFullCopyDiscardDropsSnapshot(t *testing.T, s *Store) {
	s.SetLogging(true)
	c := NewCell(s, "x", 1)
	s.Checkpoint()
	c.Set(5)
	s.DiscardLog()
	s.Rollback() // no checkpoint current: must be a no-op
	if c.Get() != 5 {
		t.Fatalf("rollback after discard changed state to %d", c.Get())
	}
}

// TestPropertyFullCopyMatchesUndoLog: both checkpointing strategies
// restore identical states for any mutation sequence.
func TestPropertyFullCopyMatchesUndoLog(t *testing.T) {
	fn := func(seed uint64, opCount uint8) bool {
		build := func(mode Instrumentation) (*Store, *Cell[int], *Map[int, int], *Slice[int]) {
			s := NewStore("prop", mode)
			s.SetLogging(true)
			return s, NewCell(s, "cell", 0), NewMap[int, int](s, "map"), NewSlice[int](s, "slice")
		}
		s1, c1, m1, l1 := build(Optimized)
		s2, c2, m2, l2 := build(FullCopy)

		r1, r2 := sim.NewRNG(seed), sim.NewRNG(seed)
		applyRandomOps(r1, 10, c1, m1, l1)
		applyRandomOps(r2, 10, c2, m2, l2)
		s1.Checkpoint()
		s2.Checkpoint()
		applyRandomOps(r1, int(opCount), c1, m1, l1)
		applyRandomOps(r2, int(opCount), c2, m2, l2)
		s1.Rollback()
		s2.Rollback()

		return equalModel(snapshotModel(c1, m1, l1), snapshotModel(c2, m2, l2))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
