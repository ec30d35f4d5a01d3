package memlog

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

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
// a slice with some initial state, plus a charge accumulator.
func buildFullCopyStore(legacy bool) (*Store, *Cell[int], *Map[int, int], *Slice[int], *sim.Cycles) {
	s := NewStore("inc", FullCopy)
	s.SetLegacyCheckpoint(legacy)
	charged := new(sim.Cycles)
	s.SetCostSink(func(n sim.Cycles) { *charged += n })
	c := NewCell(s, "c", 1)
	m := NewMap[int, int](s, "m")
	sl := NewSlice[int](s, "sl")
	for i := 0; i < 64; i++ {
		m.Set(i, i*3)
		sl.Append(i)
	}
	return s, c, m, sl, charged
}

func TestIncrementalCheckpointChargesDeltaOnly(t *testing.T) {
	s, c, _, _, charged := buildFullCopyStore(false)
	s.SetLogging(true)

	s.Checkpoint() // first checkpoint: every container is dirty, full charge
	full := *charged
	wantFull := sim.Cycles(s.BaseBytes()) >> fullCopyCheckpointShift
	if full != wantFull {
		t.Fatalf("first checkpoint charged %d, want full copy %d", full, wantFull)
	}

	*charged = 0
	c.Set(7)
	s.Checkpoint() // only the cell changed: delta charge
	wantDelta := sim.Cycles(approxSize(7)) >> fullCopyCheckpointShift
	if *charged != wantDelta {
		t.Fatalf("delta checkpoint charged %d, want %d", *charged, wantDelta)
	}
	if *charged >= full {
		t.Fatalf("delta charge %d not below full charge %d", *charged, full)
	}

	*charged = 0
	s.Checkpoint() // nothing changed: free
	if *charged != 0 {
		t.Fatalf("no-op checkpoint charged %d, want 0", *charged)
	}
}

func TestLegacyCheckpointStillChargesFullState(t *testing.T) {
	s, c, _, _, charged := buildFullCopyStore(true)
	s.SetLogging(true)
	s.Checkpoint()
	full := *charged
	*charged = 0
	c.Set(7)
	s.Checkpoint()
	if *charged != full {
		t.Fatalf("legacy second checkpoint charged %d, want full %d", *charged, full)
	}
}

func TestIncrementalRollbackRestoresCheckpointState(t *testing.T) {
	s, c, m, sl, _ := buildFullCopyStore(false)
	s.SetLogging(true)
	s.Checkpoint()
	want := snapshotModel(c, m, sl)

	c.Set(99)
	m.Set(3, -1)
	m.Delete(5)
	m.Set(200, 200)
	sl.Set(0, -7)
	sl.Truncate(10)
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
	s, c, m, sl, _ := buildFullCopyStore(false)
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

func TestIncrementalDiscardRetainsDeltaBase(t *testing.T) {
	s, c, _, _, charged := buildFullCopyStore(false)
	s.SetLogging(true)
	s.Checkpoint()

	c.Set(42)
	s.DiscardLog() // window closed: the dirty set stays the delta
	s.Rollback()   // must be a no-op now
	if c.Get() != 42 {
		t.Fatalf("rollback after discard restored state: cell %d, want 42", c.Get())
	}

	*charged = 0
	c.Set(43)
	s.Checkpoint() // next window: sync only the dirty cell
	wantDelta := sim.Cycles(approxSize(43)) >> fullCopyCheckpointShift
	if *charged != wantDelta {
		t.Fatalf("post-discard checkpoint charged %d, want delta %d", *charged, wantDelta)
	}
	c.Set(44)
	s.Rollback()
	if c.Get() != 43 {
		t.Fatalf("rollback restored cell to %d, want 43", c.Get())
	}
}

func TestHandOverBaseWarmStartsClone(t *testing.T) {
	s, c, m, _, _ := buildFullCopyStore(false)
	s.SetLogging(true)
	s.Checkpoint()
	c.Set(1234)
	m.Set(0, -5)

	// The recovery flow: restore in place, deep-copy, and tell the
	// replacement store it holds the checkpoint.
	s.Rollback()
	clone := s.Clone()
	s.HandOverBase(clone)

	charged := new(sim.Cycles)
	clone.SetCostSink(func(n sim.Cycles) { *charged += n })
	clone.SetLogging(true)
	clone.Checkpoint() // the clone holds the checkpoint: nothing to charge
	if *charged != 0 {
		t.Fatalf("first checkpoint after the hand-over charged %d, want 0", *charged)
	}

	c2 := NewCell(clone, "c", 0) // adopts the cloned cell
	want := c2.Get()
	c2.Set(want + 1)
	clone.Rollback()
	if c2.Get() != want {
		t.Fatalf("clone rollback restored %d, want %d", c2.Get(), want)
	}
}

// A legacy store recovers as any other — the replacement starts at the
// checkpoint — but the charge rule makes its first checkpoint pay for the
// full data section, as a clone of it would.
func TestHandOverBaseUnderLegacyChargesFullSection(t *testing.T) {
	s, _, _, _, _ := buildFullCopyStore(true)
	s.SetLogging(true)
	s.Checkpoint()
	s.Rollback()
	clone := s.Clone()
	s.HandOverBase(clone)
	charged := new(sim.Cycles)
	clone.SetCostSink(func(n sim.Cycles) { *charged += n })
	clone.SetLogging(true)
	clone.Checkpoint()
	if want := sim.Cycles(clone.BaseBytes()) >> fullCopyCheckpointShift; *charged != want {
		t.Fatalf("legacy clone checkpoint charged %d, want %d", *charged, want)
	}
}

// A container registered inside a window rolls back as under the undo
// log: its writes are undone, its registration stands.
func TestRollbackUndoesContainerRegisteredAfterCheckpoint(t *testing.T) {
	for _, legacy := range []bool{true, false} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			s, _, _, _, _ := buildFullCopyStore(legacy)
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
	// wrote hears of every write that lands, named by container.
	wrote(id string)
}

// liveFullCopy is the store's own mechanism.
type liveFullCopy struct{ s *Store }

func (l *liveFullCopy) store() *Store { return l.s }
func (l *liveFullCopy) checkpoint()   { l.s.Checkpoint() }
func (l *liveFullCopy) rollback()     { l.s.Rollback() }
func (l *liveFullCopy) wrote(string)  {}

func (l *liveFullCopy) discard() {
	l.s.SetLogging(false)
	l.s.DiscardLog()
	l.s.SetLogging(true)
}

func (l *liveFullCopy) recover() {
	l.s.Rollback()
	clone := l.s.Clone()
	l.s.HandOverBase(clone)
	clone.SetLogging(true)
	l.s = clone
}

// fullCopyRef is the clone-everything FullCopy checkpoint, the reference
// the store's undo log and charge rule are held to: Checkpoint clones the
// whole data section, DiscardLog drops the clone, Rollback restores every
// container from it through the container's field list, and a recovered
// store starts with none. It keeps its
// own books on what the two charge rules owe — the whole section a
// checkpoint (legacy), and the containers written since an image was last
// current (delta) — from the script's account of its writes, not from the
// store's dirty set.
type fullCopyRef struct {
	s      *Store
	snap   *Store
	imaged bool // an image of this state exists, so a sync is a delta
	// written holds the containers written since that image was current.
	written       map[string]bool
	legacy, delta sim.Cycles
}

func (r *fullCopyRef) store() *Store   { return r.s }
func (r *fullCopyRef) discard()        { r.snap = nil }
func (r *fullCopyRef) wrote(id string) { r.written[id] = true }

func (r *fullCopyRef) checkpoint() {
	r.snap = r.s.Clone()
	full, delta := 0, 0
	for _, name := range r.s.order {
		n := r.s.containers[name].bytes()
		full += n
		if !r.imaged || r.written[name] {
			delta += n
		}
	}
	r.legacy += sim.Cycles(full) >> fullCopyCheckpointShift
	r.delta += sim.Cycles(delta) >> fullCopyCheckpointShift
	r.imaged = true
	clear(r.written)
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
	clear(r.written)
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
			before := snapshotModel(c, m, sl)
			s.CorruptRandom(r)
			after := snapshotModel(c, m, sl)
			if after.cell != before.cell {
				f.wrote(c.id)
			}
			if !reflect.DeepEqual(after.m, before.m) {
				f.wrote(m.id)
			}
			if !slices.Equal(after.slice, before.slice) {
				f.wrote(sl.id)
			}
		case 4:
			if open {
				f.recover()
				s = f.store()
				c, m, sl = NewCell(s, "c", 0), NewMap[int, int](s, "m"), NewSlice[int](s, "sl")
				open = false
			}
		default:
			applyRandomWrites(r, 1+r.Intn(5), c, m, sl, f.wrote)
		}
	}
	f.rollback()
	return snapshotModel(c, m, sl)
}

// TestPropertyIncrementalMatchesLegacyFullCopy holds the store's one
// FullCopy mechanism, under either charge rule, to the clone-everything
// reference: the same final state, the same BaseBytes, and the cycles the
// reference says the rule owes.
func TestPropertyIncrementalMatchesLegacyFullCopy(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		ref := &fullCopyRef{s: NewStore("drive", FullCopy), written: map[string]bool{}}
		want := driveFullCopy(ref, seed)
		for _, legacy := range []bool{false, true} {
			s := NewStore("drive", FullCopy)
			s.SetLegacyCheckpoint(legacy)
			var charged sim.Cycles
			s.SetCostSink(func(n sim.Cycles) { charged += n })
			s.SetLogging(true)
			live := &liveFullCopy{s: s}
			if got := driveFullCopy(live, seed); !equalModel(got, want) {
				t.Fatalf("seed %d legacy=%v: states diverged\nreference: %+v\nstore:     %+v", seed, legacy, want, got)
			}
			if got, want := live.s.BaseBytes(), rawBytes(ref.s); got != want {
				t.Fatalf("seed %d legacy=%v: BaseBytes %d, the reference holds %d", seed, legacy, got, want)
			}
			owed := ref.delta
			if legacy {
				owed = ref.legacy
			}
			if charged != owed {
				t.Fatalf("seed %d legacy=%v: charged %d cycles, the reference owes %d", seed, legacy, charged, owed)
			}
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
