package memlog

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/wire"
)

// rawBytes recomputes the resident size the slow way, bypassing the
// cached aggregate — the oracle for BaseBytes' cache coherence.
func rawBytes(s *Store) int {
	total := 0
	for _, name := range s.order {
		total += s.containers[name].bytes()
	}
	return total
}

// buildFullCopyStore returns a FullCopy store holding a cell, a map and
// a slice with some initial state.
func buildFullCopyStore() (*Store, *Cell[int], *Map[int, int], *Slice[int]) {
	s := NewStore("fc", FullCopy)
	c := NewCell(s, "c", 1)
	m := NewMap[int, int](s, "m")
	sl := NewSlice[int](s, "sl")
	for i := 0; i < 64; i++ {
		m.Set(i, i*3)
		sl.Append(i)
	}
	return s, c, m, sl
}

// fullCopyRule runs fn over a fresh FullCopy store in a subtest named
// for the charge rule it holds the store to: "legacy=true", the copy of
// the whole data section per checkpoint, which is the one rule FullCopy
// has.
func fullCopyRule(t *testing.T, fn func(t *testing.T, s *Store)) {
	t.Run("legacy=true", func(t *testing.T) { fn(t, NewStore("fc", FullCopy)) })
}

func TestFullCopyCheckpointRollback(t *testing.T) {
	fullCopyRule(t, testFullCopyCheckpointRollback)
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

// Every FullCopy checkpoint charges a copy of the whole data section —
// the first, one after a single small write and one after none alike —
// and plain stores charge nothing.
func TestFullCopyChargesPerCheckpoint(t *testing.T) {
	fullCopyRule(t, testFullCopyChargesPerCheckpoint)
}

func testFullCopyChargesPerCheckpoint(t *testing.T, s *Store) {
	var charged sim.Cycles
	s.SetCostSink(func(n sim.Cycles) { charged += n })
	c := NewCell(s, "x", 1)
	sl := NewSlice[int64](s, "arena")
	for i := 0; i < 1000; i++ {
		sl.Append(int64(i))
	}
	if charged != 0 {
		t.Fatalf("FullCopy charged %d for plain stores", charged)
	}
	s.SetLogging(true)
	for i, write := range []bool{false, true, false} {
		if write {
			c.Set(7)
		}
		charged = 0
		s.Checkpoint()
		want := sim.Cycles(rawBytes(s)) >> fullCopyCheckpointShift
		if charged != want || want < 2000 {
			t.Fatalf("checkpoint %d charged %d cycles, want the whole section, %d (at least 2000 for the 8000-byte arena)", i, charged, want)
		}
	}
}

func TestFullCopyWindowClosedTakesNoSnapshot(t *testing.T) {
	fullCopyRule(t, testFullCopyWindowClosedTakesNoSnapshot)
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
	fullCopyRule(t, testFullCopyDiscardDropsSnapshot)
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

func TestIncrementalRollbackRestoresCheckpointState(t *testing.T) {
	s, c, m, sl := buildFullCopyStore()
	s.SetLogging(true)
	s.Checkpoint()
	want := snapshotModel(c, m, sl)

	c.Set(99)
	m.Set(3, -1)
	m.Delete(5)
	m.Set(200, 200)
	sl.Set(0, -7)
	sl.Append(11)
	s.Rollback()
	if got := snapshotModel(c, m, sl); !equalModel(got, want) {
		t.Fatalf("rollback state %+v, want checkpoint state %+v", got, want)
	}
	// Rollback is idempotent.
	s.Rollback()
	if got := snapshotModel(c, m, sl); !equalModel(got, want) {
		t.Fatalf("second rollback diverged: %+v, want %+v", got, want)
	}
	if s.BaseBytes() != rawBytes(s) {
		t.Fatalf("cached BaseBytes %d, raw %d", s.BaseBytes(), rawBytes(s))
	}
}

func TestIncrementalRollbackUndoesSilentCorruption(t *testing.T) {
	s, c, m, sl := buildFullCopyStore()
	s.SetLogging(true)
	s.Checkpoint()
	want := snapshotModel(c, m, sl)
	r := sim.NewRNG(11)
	if !s.CorruptRandom(r) {
		t.Fatal("corruption did not land")
	}
	s.Rollback()
	if got := snapshotModel(c, m, sl); !equalModel(got, want) {
		t.Fatalf("rollback did not undo corruption: %+v, want %+v", got, want)
	}
}

// A container registered inside a window rolls back as under the undo
// log: its writes are undone, its registration stands.
func TestRollbackUndoesContainerRegisteredAfterCheckpoint(t *testing.T) {
	fullCopyRule(t, func(t *testing.T, _ *Store) {
		s, _, _, _ := buildFullCopyStore()
		s.SetLogging(true)
		s.Checkpoint()
		late := NewCell(s, "late", 1)
		late.Set(2)
		s.Rollback()
		if late.Get() != 1 {
			t.Fatalf("late cell = %d after rollback, want 1", late.Get())
		}
	})
}

// A checkpoint after a write charges the same whole-section copy as the
// first checkpoint did.
func TestLegacyCheckpointStillChargesFullState(t *testing.T) {
	s, c, _, _ := buildFullCopyStore()
	var charged sim.Cycles
	s.SetCostSink(func(n sim.Cycles) { charged += n })
	s.SetLogging(true)
	s.Checkpoint()
	full := charged
	charged = 0
	c.Set(7)
	s.Checkpoint()
	if charged != full || full == 0 {
		t.Fatalf("second checkpoint charged %d, want the first checkpoint's full %d", charged, full)
	}
}

// fullCopyMech is a FullCopy checkpoint mechanism as driveFullCopy sees
// it: the store, or the reference.
type fullCopyMech interface {
	store() *Store
	checkpoint()
	rollback()
	// discard closes the recovery window and opens it again, as seep does
	// but without the checkpoint seep takes on opening.
	discard()
	// recover is core's rollback recovery: restore, then carry on in a
	// copy of the restored store.
	recover()
}

// liveFullCopy is the store's own mechanism.
type liveFullCopy struct{ s *Store }

func (l *liveFullCopy) store() *Store { return l.s }
func (l *liveFullCopy) checkpoint()   { l.s.Checkpoint() }
func (l *liveFullCopy) rollback()     { l.s.Rollback() }

func (l *liveFullCopy) discard() {
	l.s.SetLogging(false)
	l.s.DiscardLog()
	l.s.SetLogging(true)
}

func (l *liveFullCopy) recover() {
	l.s.Rollback()
	l.s = l.s.Clone()
	l.s.SetLogging(true)
}

// fullCopyRef is the clone-everything FullCopy checkpoint, the reference
// the store's undo log and charge rule are held to: Checkpoint clones the
// whole data section and owes a copy of all of it, DiscardLog drops the
// clone, Rollback restores every container from it through the
// container's field list, and a recovered store starts with none.
type fullCopyRef struct {
	s, snap *Store
	owed    sim.Cycles
}

func (r *fullCopyRef) store() *Store { return r.s }
func (r *fullCopyRef) discard()      { r.snap = nil }

func (r *fullCopyRef) checkpoint() {
	r.snap = r.s.Clone()
	r.owed += sim.Cycles(rawBytes(r.s)) >> fullCopyCheckpointShift
}

func (r *fullCopyRef) rollback() {
	if r.snap == nil {
		return
	}
	for _, name := range r.s.order {
		e := wire.NewEncoder()
		r.snap.lookup(name).codeState(wire.Encoding(e))
		d := wire.Decoding(wire.NewDecoder(e.Bytes()))
		c := r.s.containers[name]
		if c.codeState(d); d.Err() != nil {
			panic(fmt.Sprintf("restore %q: %v", name, d.Err()))
		}
		r.s.touch(c, c.meta())
	}
}

func (r *fullCopyRef) recover() {
	r.rollback()
	r.s, r.snap = r.s.Clone(), nil
}

// driveFullCopy runs one deterministic script of writes, silent
// corruptions, checkpoints, rollbacks, window close/reopens and rollback
// recoveries against f and returns the final state. Every mechanism
// consumes the RNG identically, so the same seed must yield the same state
// under each. As in core, a recovery rolls back only with the window open,
// and only a checkpoint opens it.
func driveFullCopy(f fullCopyMech, seed uint64) modelState {
	s := f.store()
	c, m, sl := NewCell(s, "c", 0), NewMap[int, int](s, "m"), NewSlice[int](s, "sl")
	r := sim.NewRNG(seed)
	open := false
	for i := 0; i < 60; i++ {
		switch r.Intn(7) {
		case 0:
			f.checkpoint()
			open = true
		case 1:
			f.rollback()
		case 2:
			f.discard()
			open = false
		case 3:
			s.CorruptRandom(r)
		case 4:
			if open {
				f.recover()
				s = f.store()
				c, m, sl = NewCell(s, "c", 0), NewMap[int, int](s, "m"), NewSlice[int](s, "sl")
				open = false
			}
		default:
			applyRandomOps(r, 1+r.Intn(5), c, m, sl)
		}
	}
	f.rollback()
	return snapshotModel(c, m, sl)
}

// TestPropertyFullCopyMatchesCloneReference holds the store's FullCopy
// mechanism to the clone-everything reference: the same final state, the
// same BaseBytes, and the cycles the reference owes for its copies.
func TestPropertyFullCopyMatchesCloneReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		ref := &fullCopyRef{s: NewStore("drive", FullCopy)}
		want := driveFullCopy(ref, seed)
		s := NewStore("drive", FullCopy)
		var charged sim.Cycles
		s.SetCostSink(func(n sim.Cycles) { charged += n })
		s.SetLogging(true)
		live := &liveFullCopy{s: s}
		if got := driveFullCopy(live, seed); !equalModel(got, want) {
			t.Fatalf("seed %d: states diverged\nreference: %+v\nstore:     %+v", seed, want, got)
		}
		if got, want := live.s.BaseBytes(), rawBytes(ref.s); got != want {
			t.Fatalf("seed %d: BaseBytes %d, the reference holds %d", seed, got, want)
		}
		if charged != ref.owed {
			t.Fatalf("seed %d: charged %d cycles, the reference owes %d", seed, charged, ref.owed)
		}
	}
}

func TestBaseBytesCacheCoherent(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := NewStore("cache", Optimized)
		c := NewCell(s, "c", 0)
		m := NewMap[int, int](s, "m")
		sl := NewSlice[int](s, "sl")
		r := sim.NewRNG(seed)
		for i := 0; i < 10; i++ {
			applyRandomOps(r, 10, c, m, sl)
			if got, want := s.BaseBytes(), rawBytes(s); got != want {
				t.Fatalf("seed %d round %d: cached BaseBytes %d, raw %d", seed, i, got, want)
			}
		}
	}
}
