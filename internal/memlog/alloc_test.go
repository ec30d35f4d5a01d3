package memlog

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// The logging fast path must be allocation-free when the store is not
// logging: no undoRec is built, so neither old values nor keys are
// boxed into interfaces. This is the hot path of every instrumented
// store in Baseline mode and in Optimized mode outside a recovery
// window.
func TestNotLoggingStoresDoNotAllocate(t *testing.T) {
	for _, mode := range []Instrumentation{Baseline, Optimized, FullCopy} {
		s := NewStore("alloc", mode) // logging stays closed
		cell := NewCell(s, "cell", "initial-value")
		m := NewMap[int, string](s, "map")
		m.Set(1, "seed")
		sl := NewSlice[string](s, "slice")
		sl.Append("seed")

		allocs := testing.AllocsPerRun(200, func() {
			cell.Set("overwritten-value")
			m.Set(1, "overwritten-value")
			sl.Set(0, "overwritten-value")
		})
		if allocs != 0 {
			t.Errorf("mode %d: unlogged stores allocated %.1f times per run, want 0", mode, allocs)
		}
	}
}

// rec is a struct element the size of a store record.
type rec struct {
	EP, Pages int64
	Name      string
}

func (r *rec) Code(c *wire.Codec) {
	wire.Int(c, &r.EP)
	wire.Int(c, &r.Pages)
	c.Str(&r.Name)
}

// The logged path allocates nothing either once the logs have grown to
// the request's size: a record is flat and the old value (and key) goes
// into the container's own typed side log, so nothing is boxed. The
// Checkpoint each round is the top of the request loop. FullCopy's
// host-side records take the same path.
func TestLoggedStoresDoNotAllocate(t *testing.T) {
	for _, mode := range []Instrumentation{Unoptimized, Optimized, FullCopy} {
		s := NewStore("alloc", mode)
		s.SetLogging(true)
		cell := NewCell(s, "cell", "initial-value")
		m := NewMap[int64, rec](s, "map")
		m.Set(1, rec{EP: 1})
		sl := NewSlice[string](s, "slice")
		sl.Append("seed")
		round := func() {
			s.Checkpoint()
			cell.Set("overwritten-value")
			m.Set(1, rec{EP: 1, Pages: 16, Name: "overwritten"})
			m.Set(2, rec{EP: 2})
			m.Delete(2)
			sl.Set(0, "overwritten-value")
		}
		round() // grow the log, the side logs and the map once
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("mode %d: logged stores allocated %.1f times per round, want 0", mode, allocs)
		}
		if s.LogLen() != 5 {
			t.Fatalf("mode %d: LogLen = %d after a round, want 5", mode, s.LogLen())
		}
	}
}

// Re-hashing a dirty container allocates nothing, whatever its kind and
// element type: the hashing codec lives in the store, and a map's values
// pass through the map's own scratch value.
func TestStoreFingerprintDoesNotAllocate(t *testing.T) {
	s := NewStore("fpalloc", Baseline)
	cell := NewCell(s, "cell", 0)
	scalars := NewMap[int64, int](s, "scalars")
	recs := NewMap[int64, rec](s, "recs")
	frames := NewSlice[int32](s, "frames")
	for i := int64(0); i < 16; i++ {
		scalars.Set(i, int(i))
		recs.Set(i, rec{EP: i, Name: "record"})
		frames.Append(int32(i))
	}
	// Slices of several pages with a partial last one: a re-hash hashes
	// the page written and takes the others' cached mixes.
	table := NewSlice[int32](s, "table")
	table.Grow(3*slicePageLen + 100)
	records := NewSlice[rec](s, "records")
	records.Grow(2*slicePageLen + 1)
	fingerprint := func() {
		if _, err := s.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}
	fingerprint()
	for _, c := range []struct {
		name  string
		dirty func()
	}{
		{"scalar Cell", func() { cell.Set(cell.Get() + 1) }},
		{"scalar Map", func() { scalars.Set(3, scalars.Len()) }},
		{"scalar Slice", func() { frames.Set(3, 7) }},
		{"struct-valued Map", func() { recs.Set(3, rec{EP: 3, Pages: 1}) }},
		{"multi-page scalar Slice", func() { table.Set(2*slicePageLen+5, table.Get(2*slicePageLen+5)+1) }},
		{"multi-page struct Slice", func() { records.Set(slicePageLen+3, rec{EP: 3, Pages: 1}) }},
	} {
		if allocs := testing.AllocsPerRun(100, func() { c.dirty(); fingerprint() }); allocs != 0 {
			t.Errorf("%s: dirtying and re-hashing allocated %.1f times per run, want 0", c.name, allocs)
		}
	}
}

// ReleaseLog recycles the slab but leaves the store fully usable: the
// next logged store acquires a fresh backing array.
func TestReleaseLogStoreRemainsUsable(t *testing.T) {
	s := NewStore("pool", Unoptimized)
	c := NewCell(s, "c", 0)
	s.Checkpoint()
	c.Set(1)
	c.Set(2)
	if s.LogLen() != 2 {
		t.Fatalf("LogLen = %d, want 2", s.LogLen())
	}
	s.ReleaseLog()
	if s.LogLen() != 0 || s.LogBytes() != 0 {
		t.Fatalf("after release: LogLen=%d LogBytes=%d", s.LogLen(), s.LogBytes())
	}
	s.Checkpoint()
	c.Set(3)
	if s.LogLen() != 1 {
		t.Fatalf("LogLen after re-grab = %d, want 1", s.LogLen())
	}
	s.Rollback()
	if c.Get() != 2 {
		t.Fatalf("rollback restored %d, want 2", c.Get())
	}
}

// A store whose log once outgrew the pooled slab preallocates its next
// log to the demonstrated high-water mark instead of growing through
// repeated reallocation.
func TestLogPreallocatesToHighWater(t *testing.T) {
	s := NewStore("hw", Unoptimized)
	c := NewCell(s, "c", 0)
	n := slabRecords * 2
	for i := 0; i < n; i++ {
		c.Set(i)
	}
	s.DiscardLog()
	s.ReleaseLog()
	c.Set(1)
	if got := cap(s.log); got < n {
		t.Fatalf("log capacity after high-water re-grab = %d, want >= %d", got, n)
	}
	// The high-water hint survives cloning (restarted components keep
	// their demonstrated log size).
	clone := s.Clone()
	if clone.maxLogLen != s.maxLogLen {
		t.Fatalf("clone maxLogLen = %d, want %d", clone.maxLogLen, s.maxLogLen)
	}
}

// TransferLog hands the backing array to the destination store rather
// than copying it; both stores stay independently usable afterwards.
func TestTransferLogHandsOverBackingArray(t *testing.T) {
	src := NewStore("src", Unoptimized)
	c := NewCell(src, "c", 0)
	c.Set(1)
	c.Set(2)
	dst := src.Clone()
	src.TransferLog(dst)
	if src.LogLen() != 0 {
		t.Fatalf("source LogLen = %d after transfer", src.LogLen())
	}
	if dst.LogLen() != 2 {
		t.Fatalf("dest LogLen = %d, want 2", dst.LogLen())
	}
	dst.Rollback()
	dc := NewCell(dst, "c", -1) // returns the cloned cell
	if dc.Get() != 0 {
		t.Fatalf("rollback on transferred log restored %d, want 0", dc.Get())
	}
	c.Set(5)
	if src.LogLen() != 1 {
		t.Fatalf("source unusable after transfer: LogLen = %d", src.LogLen())
	}
}

// Benchmarks below quantify the boxing work the branch-before-record
// restructure removed. String payloads are used deliberately: boxing a
// string into an interface allocates, so the logged path reports
// allocs/op while the unlogged paths must report zero.

func benchCell(b *testing.B, mode Instrumentation, logging bool) {
	s := NewStore("bench", mode)
	s.SetLogging(logging)
	c := NewCell(s, "cell", "initial")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			// Top-of-loop checkpoint: the freelist reset that bounds
			// log growth in real request loops.
			s.Checkpoint()
		}
		c.Set("stored-value")
	}
}

func BenchmarkCellSetBaseline(b *testing.B)        { benchCell(b, Baseline, false) }
func BenchmarkCellSetOptimizedClosed(b *testing.B) { benchCell(b, Optimized, false) }
func BenchmarkCellSetOptimizedLogged(b *testing.B) { benchCell(b, Optimized, true) }
func BenchmarkCellSetUnoptimized(b *testing.B)     { benchCell(b, Unoptimized, false) }

func benchMap(b *testing.B, mode Instrumentation, logging bool) {
	s := NewStore("bench", mode)
	s.SetLogging(logging)
	m := NewMap[int, string](s, "map")
	for k := 0; k < 16; k++ {
		m.Set(k, "seed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			s.Checkpoint()
		}
		m.Set(i%16, "stored-value")
	}
}

func BenchmarkMapSetBaseline(b *testing.B)        { benchMap(b, Baseline, false) }
func BenchmarkMapSetOptimizedClosed(b *testing.B) { benchMap(b, Optimized, false) }
func BenchmarkMapSetOptimizedLogged(b *testing.B) { benchMap(b, Optimized, true) }

func benchSlice(b *testing.B, mode Instrumentation, logging bool) {
	s := NewStore("bench", mode)
	s.SetLogging(logging)
	sl := NewSlice[string](s, "slice")
	for k := 0; k < 16; k++ {
		sl.Append("seed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			s.Checkpoint()
		}
		sl.Set(i%16, "stored-value")
	}
}

// space is a map value the shape of VM's address-space record.
type space struct{ EP, Pages, Brk int64 }

func (s *space) Code(c *wire.Codec) {
	wire.Int(c, &s.EP)
	wire.Int(c, &s.Pages)
	wire.Int(c, &s.Brk)
}

// BenchmarkLoggedMapSet is the logged store as the servers issue it: an
// int64 key and a small struct value (vm.spaces, pm's process table),
// overwrite, insert and delete, with the request loop's Checkpoint every
// few stores. It is the layer benchmark for the typed undo log.
func BenchmarkLoggedMapSet(b *testing.B) {
	s := NewStore("bench", Optimized)
	s.SetLogging(true)
	m := NewMap[int64, space](s, "map")
	for k := int64(0); k < 16; k++ {
		m.Set(k, space{EP: k})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			s.Checkpoint()
		}
		k := int64(i % 16)
		m.Set(k, space{EP: k, Pages: int64(i)})
		m.Set(100, space{EP: 100})
		m.Delete(100)
	}
}

func BenchmarkSliceSetBaseline(b *testing.B)        { benchSlice(b, Baseline, false) }
func BenchmarkSliceSetOptimizedClosed(b *testing.B) { benchSlice(b, Optimized, false) }
func BenchmarkSliceSetOptimizedLogged(b *testing.B) { benchSlice(b, Optimized, true) }

// BaseBytes is served from a cached aggregate: steady-state calls — and
// the write+re-query cycle that dirties exactly one container — must
// not allocate. This pins the O(1) sizing the recovery-cost accounting
// in core relies on.
func TestBaseBytesSteadyStateDoesNotAllocate(t *testing.T) {
	s := NewStore("sizecache", FullCopy)
	cells := make([]*Cell[int], 16)
	for i := range cells {
		cells[i] = NewCell(s, string(rune('a'+i)), i)
	}
	var sink int
	sink = s.BaseBytes() // warm the cache and the tracking slices
	cells[0].Set(42)
	sink = s.BaseBytes()

	allocs := testing.AllocsPerRun(200, func() {
		sink = s.BaseBytes()
	})
	if allocs != 0 {
		t.Errorf("clean BaseBytes allocated %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		cells[3].Set(42)
		sink = s.BaseBytes()
	})
	if allocs != 0 {
		t.Errorf("dirty-one BaseBytes allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// ForEach walks the slab in place: walking a map of several pages, holes
// among them, allocates nothing.
func TestMapKeysDoesNotAllocate(t *testing.T) {
	s := NewStore("keys", Baseline)
	m := NewMap[int, int](s, "m")
	for i := 0; i < 3*mapPageLen; i++ {
		m.Set(i, i)
	}
	for i := 0; i < 3*mapPageLen; i += 7 {
		m.Delete(i)
	}
	var sum, n int
	allocs := testing.AllocsPerRun(200, func() {
		n = 0
		m.ForEach(func(k, v int) bool {
			sum += v
			n++
			return true
		})
	})
	if allocs != 0 {
		t.Errorf("ForEach allocated %.1f times per run, want 0", allocs)
	}
	if n != m.Len() {
		t.Fatalf("ForEach visited %d keys, Len is %d", n, m.Len())
	}
}

// heapUse returns the mallocs and bytes f takes from the host allocator.
// The counters are the process's, so nothing else may allocate while f
// runs. No collection starts: the runtime's own allocations for one would
// count as f's. And f runs on one P, so that no other goroutine runs
// beside it: on two Ps, a 16-byte malloc beyond f's own four landed in
// the window in about one run of TestCaptureReusesContentsWrittenBack
// in 300, while f uses no pool (none in 900 runs on one P, nor with the
// collector off for the whole process; the test's own goroutines were
// all blocked).
func heapUse(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// A clone shares a map's tables and pages with the original until either
// writes them (DESIGN.md §7): cloning a store costs the same whether its
// map holds 128 entries or none, and the first Set on either side copies
// the tables and the page it lands on, after which its Sets to that page
// allocate nothing again.
func TestMapCloneDoesNotAllocateUntilWritten(t *testing.T) {
	build := func(n int) (*Store, *Map[int64, rec]) {
		s := NewStore("share", Baseline)
		m := NewMap[int64, rec](s, "map")
		for k := int64(0); k < int64(n); k++ {
			m.Set(k, rec{EP: k, Name: "record"})
		}
		return s, m
	}
	const runs = 50
	cloneCost := func(s *Store) (mallocs, bytes uint64) {
		s.Clone() // the first clone gives the map up
		mallocs, bytes = heapUse(func() {
			for i := 0; i < runs; i++ {
				s.Clone()
			}
		})
		return mallocs / runs, bytes / runs
	}
	empty, _ := build(0)
	full, m := build(128)
	emptyMallocs, emptyBytes := cloneCost(empty)
	fullMallocs, fullBytes := cloneCost(full)
	if fullMallocs != emptyMallocs || fullBytes >= emptyBytes+128 {
		t.Errorf("a clone of a 128-entry map takes %d mallocs, %d bytes; of an empty one %d, %d: want no more", fullMallocs, fullBytes, emptyMallocs, emptyBytes)
	}

	sides := []struct {
		name string
		m    *Map[int64, rec]
	}{{"clone", NewMap[int64, rec](full.Clone(), "map")}, {"original", m}}
	for _, side := range sides {
		if mallocs, _ := heapUse(func() { side.m.Set(3, rec{EP: 3, Name: side.name}) }); mallocs == 0 {
			t.Errorf("the %s's first Set allocated nothing: it wrote a shared page", side.name)
		}
		if allocs := testing.AllocsPerRun(100, func() { side.m.Set(5, rec{EP: 5, Name: side.name}) }); allocs != 0 {
			t.Errorf("the %s's Sets after its first allocated %.1f times per run, want 0", side.name, allocs)
		}
	}
	for _, side := range sides {
		if v, _ := side.m.Get(3); v.Name != side.name || side.m.Len() != 128 {
			t.Errorf("the %s reads %+v at key 3 and holds %d keys: the other side's write reached it", side.name, v, side.m.Len())
		}
	}
}

// A capture's comparison of a written container with the previous
// capture's copy allocates nothing once its buffers have grown: the
// pairs below differ only in their last value, so every element of the
// pages written is walked and no page is shared back.
func TestContentComparisonDoesNotAllocate(t *testing.T) {
	s := NewStore("compare", Baseline)
	m := NewMap[int64, rec](s, "map")
	for k := int64(0); k < 64; k++ {
		m.Set(k, rec{EP: k, Name: "record"})
	}
	sl := NewSlice[int32](s, "slice")
	sl.Grow(3 * slicePageLen)
	prev := s.Capture()
	m.Set(63, rec{EP: 63, Name: "changed"})
	sl.Set(sl.Len()-1, 1)
	x := new(sameScratch)
	for _, c := range []container{m, sl} {
		p := prev.containers[c.name()]
		if allocs := testing.AllocsPerRun(50, func() { c.reshare(p, x) }); allocs != 0 {
			t.Errorf("%s: the comparison allocated %.1f times per run, want 0", c.name(), allocs)
		}
		if sharesContents(p, c) {
			t.Fatalf("%s: contents that differ compared equal", c.name())
		}
	}
}

// A FullCopy checkpoint round over a warm store — a few writes under
// host-side undo records, then the charge for the whole section — must be
// allocation-free: the tracking slices and the log are reused.
func TestIncrementalCheckpointSteadyStateDoesNotAllocate(t *testing.T) {
	s := NewStore("ckptalloc", FullCopy)
	cells := make([]*Cell[int], 16)
	for i := range cells {
		cells[i] = NewCell(s, string(rune('a'+i)), i)
	}
	s.SetLogging(true)
	s.Checkpoint()
	cells[0].Set(1)
	s.Checkpoint() // warm round

	allocs := testing.AllocsPerRun(200, func() {
		cells[0].Set(7)
		cells[1].Set(9)
		s.Checkpoint()
	})
	if allocs != 0 {
		t.Errorf("a FullCopy checkpoint round allocated %.1f times per run, want 0", allocs)
	}
}

// A FullCopy checkpoint copies nothing — the copy is a charge rule — so
// not even a store's first one allocates, though it charges for the whole
// data section. Each measured run checkpoints a store for the first time.
func TestFullCopyFirstCheckpointDoesNotAllocate(t *testing.T) {
	const runs = 10
	stores := make([]*Store, runs+1) // AllocsPerRun warms up with one run
	var charged sim.Cycles
	for i := range stores {
		s := NewStore("first", FullCopy)
		s.SetCostSink(func(n sim.Cycles) { charged += n })
		m := NewMap[int, string](s, "m")
		sl := NewSlice[int64](s, "sl")
		for k := 0; k < 32; k++ {
			m.Set(k, "value")
			sl.Append(int64(k))
		}
		s.SetLogging(true)
		stores[i] = s
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		stores[next].Checkpoint()
		next++
	})
	if allocs != 0 {
		t.Errorf("a first FullCopy checkpoint allocated %.1f times per run, want 0", allocs)
	}
	if want := sim.Cycles(stores[0].BaseBytes()) >> fullCopyCheckpointShift * (runs + 1); charged != want {
		t.Errorf("first checkpoints charged %d cycles, want the whole section each, %d", charged, want)
	}
}

// A lookup allocates nothing, not even for a string key built for it: the
// key's hash does not keep it.
func TestMapLookupDoesNotAllocate(t *testing.T) {
	s := NewStore("lookup", Baseline)
	m := NewMap[string, int64](s, "m")
	for i := 0; i < 40; i++ {
		m.Set(string(rune('a'+i%26))+"/"+string(rune('a'+i/26)), int64(i))
	}
	dir := "q"
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := m.Get(dir + "/" + "a"); !ok {
			t.Fatal("key missing")
		}
	}); allocs != 0 {
		t.Errorf("a lookup of a built key allocated %.1f times per run, want 0", allocs)
	}
}
