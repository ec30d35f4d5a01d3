package memlog

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCellSetGetRollback(t *testing.T) {
	s := NewStore("pm", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "nprocs", 3)
	s.Checkpoint()
	c.Set(7)
	c.Set(9)
	if c.Get() != 9 {
		t.Fatalf("Get() = %d, want 9", c.Get())
	}
	s.Rollback()
	if c.Get() != 3 {
		t.Fatalf("after rollback Get() = %d, want 3", c.Get())
	}
	if s.LogLen() != 0 {
		t.Fatalf("log not cleared after rollback: %d records", s.LogLen())
	}
}

func TestCellRollbackToIntermediateCheckpoint(t *testing.T) {
	s := NewStore("pm", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "x", 0)
	c.Set(1)
	s.Checkpoint()
	c.Set(2)
	s.Rollback()
	if c.Get() != 1 {
		t.Fatalf("rollback target = %d, want 1 (the checkpointed value)", c.Get())
	}
}

func TestMapSetDeleteRollback(t *testing.T) {
	s := NewStore("vfs", Optimized)
	s.SetLogging(true)
	m := NewMap[int, string](s, "fds")
	m.Set(1, "stdin")
	m.Set(2, "stdout")
	s.Checkpoint()

	m.Set(2, "pipe")   // overwrite
	m.Set(3, "file")   // insert
	m.Delete(1)        // delete
	m.Set(1, "reborn") // re-insert deleted key

	s.Rollback()

	if v, ok := m.Get(1); !ok || v != "stdin" {
		t.Fatalf("key 1 = %q,%v, want stdin,true", v, ok)
	}
	if v, ok := m.Get(2); !ok || v != "stdout" {
		t.Fatalf("key 2 = %q,%v, want stdout,true", v, ok)
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("key 3 still present after rollback")
	}
	if m.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", m.Len())
	}
}

// TestMapRollbackRestoresInsertionOrder: the order index is state (the
// image and the fingerprint walk it), so undoing a Delete puts the key
// back where it stood, not at the end.
func TestMapRollbackRestoresInsertionOrder(t *testing.T) {
	s := NewStore("pm", Optimized)
	s.SetLogging(true)
	m := NewMap[int, string](s, "procs")
	for _, k := range []int{1, 2, 3, 4} {
		m.Set(k, "p")
	}
	s.Checkpoint()
	want, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	m.Delete(1)
	m.Delete(3)
	m.Set(5, "q")
	m.Delete(2)
	s.Rollback()
	if got := keysOf(m); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("keys after rollback = %v, want [1 2 3 4]", got)
	}
	if got, err := s.Fingerprint(); err != nil || got != want {
		t.Fatalf("fingerprint after rollback %#x (%v), at the checkpoint %#x", got, err, want)
	}
}

// keysOf returns m's keys in insertion order, as ForEach walks them.
func keysOf[K comparable, V any](m *Map[K, V]) []K {
	var keys []K
	m.ForEach(func(k K, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// ForEach walks the keys in insertion order: a delete takes a key out, a
// set of a deleted key puts it at the end, and a rollback puts every key
// back where it stood.
func TestMapKeysInsertionOrder(t *testing.T) {
	s := NewStore("ds", Optimized)
	m := NewMap[string, int](s, "kv")
	expect := func(what string, want ...string) {
		t.Helper()
		if got := keysOf(m); !slices.Equal(got, want) {
			t.Fatalf("%s: keys %v, want %v", what, got, want)
		}
	}
	m.Set("b", 1)
	m.Set("a", 2)
	m.Set("c", 3)
	m.Delete("a")
	expect("after a delete", "b", "c")
	m.Set("a", 4)
	expect("after a set of the deleted key", "b", "c", "a")
	s.SetLogging(true)
	s.Checkpoint()
	m.Delete("b")
	m.Set("d", 5)
	m.Delete("c")
	m.Set("b", 6)
	expect("in the window", "a", "d", "b")
	s.Rollback()
	expect("after the rollback", "b", "c", "a")
}

func TestMapForEachStopsEarly(t *testing.T) {
	s := NewStore("ds", Baseline)
	m := NewMap[int, int](s, "kv")
	for i := 0; i < 5; i++ {
		m.Set(i, i*i)
	}
	var seen []int
	m.ForEach(func(k, _ int) bool {
		seen = append(seen, k)
		return len(seen) < 3
	})
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("ForEach visited %v, want [0 1 2]", seen)
	}
}

func TestSliceOperationsRollback(t *testing.T) {
	s := NewStore("vm", Optimized)
	s.SetLogging(true)
	sl := NewSlice[int](s, "pages")
	sl.Append(10)
	sl.Append(20)
	sl.Append(30)
	s.Checkpoint()

	sl.Set(0, 99)
	sl.Append(40)
	sl.Set(3, 41)

	s.Rollback()

	want := []int{10, 20, 30}
	if sl.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", sl.Len())
	}
	for i, w := range want {
		if sl.Get(i) != w {
			t.Fatalf("Get(%d) = %d, want %d", i, sl.Get(i), w)
		}
	}
}

// elems copies sl's elements out, nil for an empty slice.
func elems[T any](sl *Slice[T]) []T {
	var out []T
	for i := 0; i < sl.Len(); i++ {
		out = append(out, sl.Get(i))
	}
	return out
}

// The shared-page rule: a clone shares the pages and owns none, so a
// page read through PageFrom is the one both sides read until one of
// them writes it. The write copies the page for the writer only, counts
// and logs like any Set, and rolls back in the writer's copy.
func TestSliceClonesSharePagesUntilWritten(t *testing.T) {
	s := NewStore("vm", Optimized)
	counters := sim.NewCounters()
	s.SetCounters(counters)
	s.SetLogging(true)
	sl := NewSlice[int32](s, "frames")
	sl.Grow(2*slicePageLen + 5)
	for i := 0; i < sl.Len(); i += 2 {
		sl.Set(i, 1)
	}
	clone := s.Clone()
	csl := NewSlice[int32](clone, "frames")
	pageOf := func(sl *Slice[int32], i int) *int32 { return &sl.PageFrom(i)[0] }
	for _, i := range []int{0, slicePageLen, 2 * slicePageLen} {
		if pageOf(sl, i) != pageOf(csl, i) {
			t.Fatalf("page of element %d is not shared by the clone", i)
		}
	}
	if got := len(csl.PageFrom(2*slicePageLen + 1)); got != 4 {
		t.Fatalf("the last page reads %d elements from its second, want 4", got)
	}

	clone.SetCounters(counters)
	clone.SetLogging(true)
	clone.Checkpoint()
	stores := counters.Get("memlog.stores_total")
	csl.Set(slicePageLen+2, 7)
	if got := counters.Get("memlog.stores_total") - stores; got != 1 {
		t.Errorf("a Set to a shared page counted %d stores, want 1", got)
	}
	if pageOf(sl, slicePageLen) == pageOf(csl, slicePageLen) {
		t.Fatal("the written page is still shared")
	}
	if pageOf(sl, 0) != pageOf(csl, 0) || pageOf(sl, 2*slicePageLen) != pageOf(csl, 2*slicePageLen) {
		t.Fatal("a write copied a page it did not land on")
	}
	if sl.Get(slicePageLen+2) != 1 || csl.Get(slicePageLen+2) != 7 {
		t.Fatalf("after the clone's write: source %d, clone %d", sl.Get(slicePageLen+2), csl.Get(slicePageLen+2))
	}
	clone.Rollback()
	if csl.Get(slicePageLen+2) != 1 || !slices.Equal(elems(csl), elems(sl)) {
		t.Fatal("the clone's rollback did not restore its copy of the page")
	}
}

func TestBaselineModeNeverLogs(t *testing.T) {
	s := NewStore("pm", Baseline)
	s.SetLogging(true) // must be ignored in Baseline mode
	c := NewCell(s, "x", 0)
	c.Set(5)
	if s.LogLen() != 0 {
		t.Fatalf("baseline store logged %d records", s.LogLen())
	}
	if s.Logging() {
		t.Fatal("Logging() = true in Baseline mode")
	}
}

func TestUnoptimizedModeAlwaysLogs(t *testing.T) {
	s := NewStore("pm", Unoptimized)
	s.SetLogging(false) // must be ignored in Unoptimized mode
	c := NewCell(s, "x", 0)
	c.Set(5)
	if s.LogLen() != 1 {
		t.Fatalf("unoptimized store logged %d records, want 1", s.LogLen())
	}
}

func TestOptimizedModeRespectsLoggingFlag(t *testing.T) {
	s := NewStore("pm", Optimized)
	c := NewCell(s, "x", 0)
	s.SetLogging(false)
	c.Set(1)
	if s.LogLen() != 0 {
		t.Fatal("logged a store while the window was closed")
	}
	s.SetLogging(true)
	c.Set(2)
	if s.LogLen() != 1 {
		t.Fatalf("LogLen() = %d, want 1", s.LogLen())
	}
}

func TestCostCharging(t *testing.T) {
	s := NewStore("pm", Optimized)
	var charged sim.Cycles
	s.SetCostSink(func(n sim.Cycles) { charged += n })
	c := NewCell(s, "x", 0)

	s.SetLogging(true)
	c.Set(1)
	if charged != CostLoggedStore {
		t.Fatalf("logged store charged %d, want %d", charged, CostLoggedStore)
	}
	charged = 0
	s.SetLogging(false)
	c.Set(2)
	if charged != CostCheckStore {
		t.Fatalf("unlogged store charged %d, want %d", charged, CostCheckStore)
	}
}

func TestCounters(t *testing.T) {
	s := NewStore("pm", Unoptimized)
	counters := sim.NewCounters()
	s.SetCounters(counters)
	c := NewCell(s, "x", 0)
	c.Set(1)
	c.Set(2)
	if got := counters.Get("memlog.stores_logged"); got != 2 {
		t.Fatalf("stores_logged = %d, want 2", got)
	}
	if got := counters.Get("memlog.stores_total"); got != 2 {
		t.Fatalf("stores_total = %d, want 2", got)
	}
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	s := NewStore("pm", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "x", 1)
	m := NewMap[int, string](s, "procs")
	m.Set(1, "init")

	clone := s.Clone()
	cc := NewCell(clone, "x", 0) // rebinds to cloned cell; init ignored
	cm := NewMap[int, string](clone, "procs")

	if cc.Get() != 1 {
		t.Fatalf("cloned cell = %d, want 1", cc.Get())
	}
	if v, ok := cm.Get(1); !ok || v != "init" {
		t.Fatalf("cloned map[1] = %q,%v, want init,true", v, ok)
	}

	c.Set(99)
	m.Set(1, "mutated")
	if cc.Get() != 1 {
		t.Fatal("mutating original changed the clone cell")
	}
	if v, _ := cm.Get(1); v != "init" {
		t.Fatal("mutating original changed the clone map")
	}
}

func TestTransferLogAndRollbackOnClone(t *testing.T) {
	// The Recovery Server flow: crash happens mid-request; the clone
	// copies the data section, receives the undo log, and rolls back.
	s := NewStore("pm", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "x", 10)
	s.Checkpoint()
	c.Set(20) // mutation inside the recovery window
	c.Set(30)

	clone := s.Clone() // data section copy (sees x=30, the crashed state)
	clone.SetLogging(true)
	s.TransferLog(clone)
	clone.Rollback()

	cc := NewCell(clone, "x", 0)
	if cc.Get() != 10 {
		t.Fatalf("clone after rollback = %d, want checkpointed 10", cc.Get())
	}
	if s.LogLen() != 0 {
		t.Fatal("TransferLog left records behind in the source")
	}
}

// The typed half of the undo log lives in the containers, so TransferLog,
// the one route that carries a log to another store, must carry it too —
// every record kind, with a dropped epoch's entries lingering in the side
// logs first.
func TestSideLogsFollowTheLog(t *testing.T) {
	build := func() (*Store, func(*Store) string) {
		s := NewStore("vfs", Optimized)
		s.SetLogging(true)
		c := NewCell(s, "c", "boot")
		m := NewMap[int64, string](s, "m")
		sl := NewSlice[int32](s, "sl")
		for i := int32(0); i < 6; i++ {
			sl.Append(i)
		}
		m.Set(1, "one")
		m.Set(2, "two")
		c.Set("stale epoch") // entries the Checkpoint leaves behind
		sl.Set(5, 50)
		s.Checkpoint()
		c.Set("x")
		m.Set(1, "uno")
		m.Set(3, "three")
		m.Delete(2)
		sl.Set(0, 9)
		sl.Append(7)
		sl.Set(1, 8)
		c.Set("y")
		return s, func(s *Store) string {
			out := NewCell(s, "c", "").Get()
			NewMap[int64, string](s, "m").ForEach(func(k int64, v string) bool {
				out += fmt.Sprintf(" %d=%s", k, v)
				return true
			})
			return out + fmt.Sprint(elems(NewSlice[int32](s, "sl")))
		}
	}
	const want = "stale epoch 1=one 2=two[0 1 2 3 4 50]"
	check := func(route string, s *Store, show func(*Store) string, records, bytes int) {
		t.Helper()
		if s.LogLen() != records || s.LogBytes() != bytes {
			t.Fatalf("%s: log is %d records / %d bytes, want %d / %d", route, s.LogLen(), s.LogBytes(), records, bytes)
		}
		s.Rollback()
		if got := show(s); got != want {
			t.Fatalf("%s: rolled back to %q, want %q", route, got, want)
		}
	}

	src, show := build()
	records, bytes := src.LogLen(), src.LogBytes()
	clone := src.Clone()
	src.TransferLog(clone)
	check("TransferLog", clone, show, records, bytes)
	// The source stays usable, with side logs that start afresh.
	c := NewCell(src, "c", "")
	c.Set("again")
	if src.Rollback(); c.Get() != "y" {
		t.Fatalf("source of the TransferLog rolled back to %q, want the crashed state %q", c.Get(), "y")
	}
}

func TestDiscardLog(t *testing.T) {
	s := NewStore("pm", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "x", 1)
	c.Set(2)
	s.DiscardLog()
	if s.LogLen() != 0 || s.LogBytes() != 0 {
		t.Fatal("DiscardLog did not clear the log")
	}
	if c.Get() != 2 {
		t.Fatal("DiscardLog must not roll back")
	}
}

func TestMaxLogBytesHighWaterMark(t *testing.T) {
	s := NewStore("vm", Optimized)
	s.SetLogging(true)
	c := NewCell(s, "x", 0)
	for i := 0; i < 10; i++ {
		c.Set(i)
	}
	high := s.MaxLogBytes()
	if high == 0 {
		t.Fatal("MaxLogBytes() = 0 after logged stores")
	}
	s.Checkpoint()
	if s.MaxLogBytes() != high {
		t.Fatal("Checkpoint reset the high-water mark")
	}
	if s.LogBytes() != 0 {
		t.Fatal("Checkpoint did not clear current log bytes")
	}
}

func TestBaseBytesAccountsContainers(t *testing.T) {
	s := NewStore("ds", Baseline)
	NewCell(s, "a", int64(1))
	m := NewMap[string, string](s, "kv")
	m.Set("key", "value")
	if s.BaseBytes() <= 8 {
		t.Fatalf("BaseBytes() = %d, want > 8", s.BaseBytes())
	}
}

func TestDuplicateContainerPanics(t *testing.T) {
	s := NewStore("pm", Baseline)
	NewCell(s, "x", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("re-declaring container with different type did not panic")
		}
	}()
	NewCell(s, "x", "different type")
}

func TestCorruptRandomChangesState(t *testing.T) {
	s := NewStore("pm", Optimized)
	c := NewCell(s, "x", 12345)
	r := sim.NewRNG(1)
	if !s.CorruptRandom(r) {
		t.Fatal("CorruptRandom reported no corruption")
	}
	if c.Get() == 12345 {
		t.Fatal("CorruptRandom did not change the value")
	}
	if s.LogLen() != 0 {
		t.Fatal("corruption must bypass the undo log")
	}
}

// opSeq drives the property test: a deterministic sequence of mutations
// derived from a seed, applied to a store with cell+map+slice.
// The map's insertion order is part of its state (codeState writes it),
// so keys lists it.
type modelState struct {
	cell  int
	m     map[int]int
	keys  []int
	slice []int
}

func snapshotModel(c *Cell[int], m *Map[int, int], sl *Slice[int]) modelState {
	ms := modelState{cell: c.Get(), m: make(map[int]int)}
	m.ForEach(func(k, v int) bool { ms.m[k] = v; ms.keys = append(ms.keys, k); return true })
	ms.slice = elems(sl)
	return ms
}

func equalModel(a, b modelState) bool {
	return a.cell == b.cell && reflect.DeepEqual(a.m, b.m) &&
		slices.Equal(a.keys, b.keys) && slices.Equal(a.slice, b.slice)
}

func applyRandomOps(r *sim.RNG, n int, c *Cell[int], m *Map[int, int], sl *Slice[int]) {
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0:
			c.Set(r.Intn(1000))
		case 1:
			m.Set(r.Intn(8), r.Intn(1000))
		case 2:
			m.Delete(r.Intn(8))
		case 3:
			sl.Append(r.Intn(1000))
		case 4:
			if sl.Len() > 0 {
				sl.Set(r.Intn(sl.Len()), r.Intn(1000))
			}
		}
	}
}

// TestPropertyRollbackInvertsAnyWriteSequence is the core correctness
// property of the undo log: for any sequence of mutations inside a
// window, Rollback restores the exact checkpointed state.
func TestPropertyRollbackInvertsAnyWriteSequence(t *testing.T) {
	f := func(seed uint64, opCount uint8) bool {
		r := sim.NewRNG(seed)
		s := NewStore("prop", Optimized)
		s.SetLogging(true)
		c := NewCell(s, "cell", 0)
		m := NewMap[int, int](s, "map")
		sl := NewSlice[int](s, "slice")

		// Pre-populate with some state before the checkpoint.
		applyRandomOps(r, 10, c, m, sl)
		s.Checkpoint()
		want := snapshotModel(c, m, sl)

		applyRandomOps(r, int(opCount), c, m, sl)
		s.Rollback()

		got := snapshotModel(c, m, sl)
		return equalModel(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDoubleRollbackIsNoop: after a rollback the log is empty,
// so a second rollback must not change state.
func TestPropertyDoubleRollbackIsNoop(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		s := NewStore("prop", Optimized)
		s.SetLogging(true)
		c := NewCell(s, "cell", 0)
		m := NewMap[int, int](s, "map")
		sl := NewSlice[int](s, "slice")
		s.Checkpoint()
		applyRandomOps(r, 20, c, m, sl)
		s.Rollback()
		a := snapshotModel(c, m, sl)
		s.Rollback()
		b := snapshotModel(c, m, sl)
		return equalModel(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCloneRollbackMatchesDirectRollback: rolling back the
// transferred log on a clone yields the same state as rolling back the
// original — the restart+rollback recovery path is equivalent to an
// in-place rollback.
func TestPropertyCloneRollbackMatchesDirectRollback(t *testing.T) {
	f := func(seed uint64, opCount uint8) bool {
		r := sim.NewRNG(seed)
		s := NewStore("prop", Optimized)
		s.SetLogging(true)
		c := NewCell(s, "cell", 0)
		m := NewMap[int, int](s, "map")
		sl := NewSlice[int](s, "slice")
		applyRandomOps(r, 8, c, m, sl)
		s.Checkpoint()
		applyRandomOps(r, int(opCount), c, m, sl)

		clone := s.Clone()
		s.TransferLog(clone)
		clone.Rollback()
		cc := NewCell(clone, "cell", 0)
		cm := NewMap[int, int](clone, "map")
		csl := NewSlice[int](clone, "slice")
		got := snapshotModel(cc, cm, csl)

		// Roll back the original for comparison. The log was moved, so
		// rebuild it by replaying: instead, compare against a snapshot
		// taken before the in-window ops by re-running deterministically.
		r2 := sim.NewRNG(seed)
		s2 := NewStore("prop", Optimized)
		s2.SetLogging(true)
		c2 := NewCell(s2, "cell", 0)
		m2 := NewMap[int, int](s2, "map")
		sl2 := NewSlice[int](s2, "slice")
		applyRandomOps(r2, 8, c2, m2, sl2)
		want := snapshotModel(c2, m2, sl2)

		return equalModel(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
