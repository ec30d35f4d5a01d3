package faultinject

// The mid-suite snapshot ladder. PR 7's warm plane forks every armed
// run from the single post-install boot barrier, so each run still
// re-executes the whole fault-free suite prefix before its fault
// triggers. But the prefix-sharing insight extends past the barrier:
// the suite emits a quiescence barrier between consecutive programs,
// and on the fault-free path the trace — including the per-site
// fault-point execution counts — is seed-independent. One PATHFINDER
// machine per (policy, configuration class) therefore walks the suite
// fault-free, rung by rung, recording at every program boundary the
// cumulative per-site counts and the suite tallies so far, and lazily
// capturing a forkable snapshot of the rung into a byte-bounded LRU
// cache. An armed (site, occurrence) then maps to the deepest rung
// strictly before its trigger; the run forks from the deepest CACHED
// rung at or above that, with the occurrence translated into the
// rung's frame, and executes only the suffix.
//
// Soundness: a fork from rung r is bit-identical to a cold run of the
// same seed if and only if the cold run's trace up to rung r is
// fault-free and seed-independent. The planner guarantees the armed
// occurrence lies strictly beyond the chosen rung's count, so nothing
// fires in the skipped prefix; seed independence is the same invariant
// PR 7 rests on, extended along the suite (and asserted by
// TestLadderRungCountsSeedIndependent). Runs the ladder cannot serve
// exactly — background transport fault rates, occurrences consumed
// before the boot barrier, failed captures or forks — fall back to the
// boot-barrier fork or a cold boot, preserving bit-identity.

import (
	"sort"
	"sync"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// snapCacheDefault overrides Config.SnapshotCacheBytes for campaign
// pathfinders when non-zero; the -snapcache CLI flag sets it.
var snapCacheDefault int64

// SetSnapshotCacheDefault sets the process-wide snapshot-ladder cache
// budget in bytes (negative disables the ladder, zero restores the
// OSIRIS_SNAPSHOT_CACHE / built-in default resolution) and returns the
// previous setting.
func SetSnapshotCacheDefault(bytes int64) int64 {
	prev := snapCacheDefault
	snapCacheDefault = bytes
	return prev
}

// Fallback reasons: why a campaign run could not be served by the
// snapshot ladder and booted cold instead.
const (
	// FallbackColdBootPinned: cold boots forced via -coldboot /
	// OSIRIS_COLD_BOOT / SetColdBootDefault — the equivalence oracle.
	FallbackColdBootPinned = "coldboot-pinned"
	// FallbackBackgroundRates: the run's transport carries background
	// fault rates, which consume the per-run fault stream from cycle
	// zero; no shared prefix exists.
	FallbackBackgroundRates = "background-ipc-rates"
	// FallbackNoSnapshot: the pathfinder never reached a capturable
	// boot barrier for this configuration class.
	FallbackNoSnapshot = "capture-failed"
	// FallbackPreBarrier: the armed occurrence is consumed before the
	// post-install boot barrier, so even the PR 7 fork is unsound.
	FallbackPreBarrier = "occurrence-within-boot"
	// FallbackForkFailed: materializing the fork failed.
	FallbackForkFailed = "fork-failed"
)

// PlaneStats reports how the warm plane served a campaign. Outcomes are
// bit-identical however runs are served; the serving split itself is
// deterministic under an ample cache budget, but may vary with worker
// interleaving when LRU eviction is active (different serve orders
// evict different rungs).
type PlaneStats struct {
	// LadderForks counts runs forked from a mid-suite rung (>= 1).
	LadderForks int
	// BootForks counts runs forked from the post-install boot barrier.
	BootForks int
	// ColdBoots counts runs that fell back to a full cold boot.
	ColdBoots int
	// Fallbacks breaks ColdBoots down by reason.
	Fallbacks map[string]int
	// Elided counts warm-served runs that ended at a quiescence barrier
	// by splicing the recorded pathfinder tail instead of re-executing
	// the remaining suite suffix (see elide.go).
	Elided int
	// ElisionFallbacks breaks warm-served, fully-executed runs down by
	// the elision fallback reason charged to each (the last blocker
	// standing when the run completed). Elided plus Wedged plus the sum
	// over ElisionFallbacks equals LadderForks plus BootForks: every warm
	// run elided its tail, was certified wedged, or is charged exactly
	// one reason.
	ElisionFallbacks map[string]int
	// Wedged counts warm-served runs ended by a wedge certificate: the
	// hang the cycle limit would have classified, proven after a few
	// heartbeat rounds instead of simulated to the limit (see elide.go).
	Wedged int
}

// Total returns the number of runs the plane served.
func (s PlaneStats) Total() int { return s.LadderForks + s.BootForks + s.ColdBoots }

// FallbackReasons returns the fallback reasons in sorted order.
func (s PlaneStats) FallbackReasons() []string {
	out := make([]string, 0, len(s.Fallbacks))
	for r := range s.Fallbacks {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// ElisionFallbackReasons returns the elision fallback reasons in sorted
// order.
func (s PlaneStats) ElisionFallbackReasons() []string {
	out := make([]string, 0, len(s.ElisionFallbacks))
	for r := range s.ElisionFallbacks {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// statsCollector accumulates PlaneStats across concurrent runs.
type statsCollector struct {
	mu sync.Mutex
	s  PlaneStats
}

func (c *statsCollector) fork(rung int) {
	c.mu.Lock()
	if rung > 0 {
		c.s.LadderForks++
	} else {
		c.s.BootForks++
	}
	c.mu.Unlock()
}

func (c *statsCollector) cold(reason string) {
	c.mu.Lock()
	c.s.ColdBoots++
	if c.s.Fallbacks == nil {
		c.s.Fallbacks = make(map[string]int)
	}
	c.s.Fallbacks[reason]++
	c.mu.Unlock()
}

func (c *statsCollector) elided() {
	c.mu.Lock()
	c.s.Elided++
	c.mu.Unlock()
}

func (c *statsCollector) wedged() {
	c.mu.Lock()
	c.s.Wedged++
	c.mu.Unlock()
}

func (c *statsCollector) elisionFallback(reason string) {
	c.mu.Lock()
	if c.s.ElisionFallbacks == nil {
		c.s.ElisionFallbacks = make(map[string]int)
	}
	c.s.ElisionFallbacks[reason]++
	c.mu.Unlock()
}

func (c *statsCollector) snapshot() PlaneStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.s
	if c.s.Fallbacks != nil {
		out.Fallbacks = make(map[string]int, len(c.s.Fallbacks))
		for k, v := range c.s.Fallbacks {
			out.Fallbacks[k] = v
		}
	}
	if c.s.ElisionFallbacks != nil {
		out.ElisionFallbacks = make(map[string]int, len(c.s.ElisionFallbacks))
		for k, v := range c.s.ElisionFallbacks {
			out.ElisionFallbacks[k] = v
		}
	}
	return out
}

// siteKey identifies a fault site as (server, site).
type siteKey [2]string

// rung is one recorded program boundary of the pathfinder walk. Both
// fields are immutable once the rung is appended: counts is cloned from
// the live tally and prefix deep-copied, so they may be read without
// the ladder lock by any fork.
type rung struct {
	// counts is the cumulative per-site fault-point execution count
	// from machine start to this rung — the translation frame for armed
	// occurrences. Rung 0's counts equal the planner's SiteProfile.Boot
	// offsets (the hook and the barrier sit in the same places).
	counts map[siteKey]int
	// prefix is the suite tally at this rung: prefix.Ran tests
	// completed, barrier parked before test prefix.Ran.
	prefix testsuite.Report

	// fp is the pathfinder's state fingerprint at this rung (valid when
	// fpOK); an armed run whose barrier state hashes equal has converged
	// onto the fault-free trace and may splice the recorded tail.
	fp   uint64
	fpOK bool
	// rng / ipcRNG are the machine and fault-plane RNG cursors at the
	// rung; equality with the tail cursors proves the pathfinder suffix
	// consumed no randomness (see sim.RNG.State).
	rng    uint64
	ipcRNG uint64
	ipcHas bool
	// clock and counters anchor the cycle and counter deltas an elided
	// run splices: delta = tail value minus rung value.
	clock    sim.Cycles
	counters map[string]uint64
}

// ladderTail is the recorded end of a completed pathfinder walk: the
// final suite tally, run result, counter snapshot and RNG cursors, plus
// the end-of-walk audit verdict. Together with a rung record it yields
// the exact deltas an elided run splices in place of re-executing the
// suffix. Immutable once recorded.
type ladderTail struct {
	report   testsuite.Report
	result   kernel.Result
	counters map[string]uint64
	rng      uint64
	ipcRNG   uint64
	ipcHas   bool
	// auditClean records whether the end-of-walk audit pass over the
	// pathfinder found every cross-server invariant intact. An elided
	// run's final audit pass is replaced by this verdict (plus its own
	// barrier-time pass), so an unclean tail disables elision entirely.
	auditClean bool
}

// ladder is the snapshot ladder of one (policy, configuration class):
// a single pathfinder machine walked lazily from barrier to barrier,
// the recorded rungs, and the byte-bounded cache of rung snapshots.
// Rung records are append-only and never evicted — only snapshots are
// — so occurrence translation is exact regardless of cache pressure,
// and lookups are request-order independent.
type ladder struct {
	mu     sync.Mutex
	opts   boot.Options
	sys    *boot.System      // pathfinder, parked at the last rung; nil once the walk ended
	report *testsuite.Report // pathfinder's live suite tally
	counts map[siteKey]int   // pathfinder's live cumulative site counts
	rungs  []rung
	cache  *snapCache
	tail   *ladderTail // recorded walk end; nil until the suite completes
}

// newLadder boots the pathfinder for cfg (plus the suite registry and
// heartbeats, exactly as every campaign run boots), drives it to the
// post-install boot barrier and captures rung 0. Returns nil when the
// machine never quiesced there — callers fall back to cold boots. When
// the resolved cache budget is negative the ladder is disabled: the
// pathfinder is torn down at rung 0 and the ladder degenerates to the
// PR 7 single-snapshot plane.
func newLadder(cfg core.Config) *ladder {
	if cfg.SnapshotCacheBytes == 0 {
		cfg.SnapshotCacheBytes = snapCacheDefault
	}
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	report := new(testsuite.Report)
	opts := boot.Options{Config: cfg, Registry: reg, Heartbeats: true}
	sys := boot.Boot(opts, testsuite.RunnerInit(report))

	l := &ladder{opts: opts, sys: sys, report: report, counts: make(map[siteKey]int)}
	names := sys.ComponentNames()
	sys.Kernel().SetPointHook(func(ep kernel.Endpoint, name, site string) {
		if _, recoverable := names[ep]; recoverable {
			l.counts[siteKey{name, site}]++
		}
	})
	if !sys.Kernel().RunToBarrier(RunLimit) {
		sys.Shutdown("ladder: barrier not reached")
		return nil
	}
	snap, err := boot.CaptureParked(sys, opts)
	if err != nil {
		sys.Shutdown("ladder: boot barrier not quiescent")
		return nil
	}
	l.cache = newSnapCache(cfg.SnapshotCacheBudget(), snap)
	l.recordRung()
	if cfg.SnapshotCacheBudget() < 0 {
		l.finish("ladder: disabled by cache budget")
	}
	return l
}

// recordRung appends the parked pathfinder's rung record: cumulative
// site counts, suite tally, state fingerprint, RNG cursors, clock and
// counter snapshot. The record's retained bytes are charged against the
// snapshot cache budget (records are never evicted — they anchor
// occurrence translation and elision — so their cost comes out of the
// snapshot side of the budget). Caller holds l.mu with the pathfinder
// parked at a barrier.
func (l *ladder) recordRung() {
	k := l.sys.Kernel()
	rg := rung{counts: cloneCounts(l.counts), prefix: cloneReport(*l.report)}
	// With elision pinned off no armed run will ever compare against the
	// rung, so the walk skips the per-rung hashing and counter snapshots
	// entirely — the oracle pays none of the elision plane's cost.
	if !noElideDefault {
		if fp, err := l.sys.StateFingerprint(); err == nil {
			rg.fp, rg.fpOK = fp, true
		}
		rg.rng = k.RNGState()
		rg.ipcRNG, rg.ipcHas = k.IPCRNGState()
		rg.clock = k.Now()
		rg.counters = k.Counters().Snapshot()
	}
	l.rungs = append(l.rungs, rg)
	l.cache.charge(rungRecordBytes(rg))
}

// recordTail captures the end of a completed walk — final tally, run
// result, counters, RNG cursors and the end-of-walk audit verdict — so
// armed runs can splice it. A pathfinder that hit the cycle limit or
// deadlocked leaves no tail and elision falls back to full execution.
// Caller holds l.mu; the machine is done but not yet torn down.
func (l *ladder) recordTail() {
	if noElideDefault {
		return
	}
	k := l.sys.Kernel()
	res := k.StepResult()
	if res.Outcome != kernel.OutcomeCompleted {
		return
	}
	t := &ladderTail{
		report:   cloneReport(*l.report),
		result:   res,
		counters: k.Counters().Snapshot(),
		rng:      k.RNGState(),
	}
	t.ipcRNG, t.ipcHas = k.IPCRNGState()
	t.auditClean = len(audit.Check(audit.Capture(l.sys.OS))) == 0
	l.tail = t
	l.cache.charge(tailRecordBytes(t))
}

// rungRecordBytes estimates the retained size of one rung record for
// cache accounting: map headers and entries, key strings, and the
// fixed fingerprint/cursor fields.
func rungRecordBytes(rg rung) int64 {
	n := int64(256)
	for key := range rg.counts {
		n += 64 + int64(len(key[0])+len(key[1]))
	}
	for name := range rg.counters {
		n += 48 + int64(len(name))
	}
	for _, s := range rg.prefix.FailedNames {
		n += 16 + int64(len(s))
	}
	return n
}

// tailRecordBytes estimates the retained size of the walk tail record.
func tailRecordBytes(t *ladderTail) int64 {
	n := int64(256) + int64(len(t.result.Reason))
	for name := range t.counters {
		n += 48 + int64(len(name))
	}
	for _, s := range t.report.FailedNames {
		n += 16 + int64(len(s))
	}
	return n
}

// finish tears the pathfinder down; no further rungs will be recorded.
// Caller holds l.mu (or is the constructor).
func (l *ladder) finish(reason string) {
	if l.sys != nil {
		l.sys.Shutdown(reason)
		l.sys = nil
	}
}

// Close tears down the pathfinder machine (its goroutines park forever
// otherwise). Snapshots already captured stay valid.
func (l *ladder) Close() {
	l.mu.Lock()
	l.finish("ladder: campaign complete")
	l.mu.Unlock()
}

// captureStride spaces snapshot captures along the walk: counts are
// recorded at EVERY rung (occurrence translation stays exact), but only
// every captureStride-th rung is captured. A fork then starts at most
// captureStride-1 tests earlier than its ideal rung — a fraction of a
// test's cost on average — while the walk pays 1/captureStride of the
// capture bill, which otherwise dominates it (a capture deep-copies all
// five server stores).
const captureStride = 4

// advance walks the pathfinder to the next program boundary and records
// the rung, capturing its snapshot into the cache on stride boundaries.
// A failed capture is non-fatal: the rung's counts still anchor
// occurrence translation, and serving falls back to an earlier cached
// rung. Caller holds l.mu.
func (l *ladder) advance() {
	if !l.sys.Kernel().RunToBarrier(RunLimit) {
		// The fault-free suite ran to completion (or hit the limit):
		// the last recorded rung is the deepest one. A completed suite
		// additionally yields the elision tail.
		l.recordTail()
		l.finish("ladder: suite complete")
		return
	}
	l.recordRung()
	idx := len(l.rungs) - 1
	if idx%captureStride != 0 {
		return
	}
	if snap, err := boot.CaptureParked(l.sys, l.opts); err == nil {
		l.cache.add(idx, snap)
	}
}

// serve maps a set of plain armed (site, occurrence) pairs to the
// deepest cached rung strictly before every trigger, walking the
// pathfinder only as deep as this request needs. It returns the serving
// rung's index, record and snapshot, with ok=false when any occurrence
// is consumed before the boot barrier (the run must boot cold — PR 7
// behavior). An empty site set serves rung 0: with no plain trigger to
// anchor, only the boot barrier is known-sound.
func (l *ladder) serve(keys []siteKey, occs []int) (int, rung, *boot.Snapshot, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for j, key := range keys {
		if occs[j]-l.rungs[0].counts[key] < 1 {
			return 0, rung{}, nil, false
		}
		for l.sys != nil && l.rungs[len(l.rungs)-1].counts[key] < occs[j] {
			l.advance()
		}
		b := 0
		for i := len(l.rungs) - 1; i >= 0; i-- {
			if l.rungs[i].counts[key] < occs[j] {
				b = i
				break
			}
		}
		if best == -1 || b < best {
			best = b
		}
	}
	if best == -1 {
		best = 0
	}
	idx, snap := l.cache.deepest(best)
	return idx, l.rungs[idx], snap, true
}

// serveDeepest walks the full ladder and serves the deepest cached
// rung. Fault-free runs (zero-rate sweep points) use it: any rung is
// sound when nothing is armed.
func (l *ladder) serveDeepest() (int, rung, *boot.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.sys != nil {
		l.advance()
	}
	idx, snap := l.cache.deepest(len(l.rungs) - 1)
	return idx, l.rungs[idx], snap
}

// elisionServe returns the rung record matching an armed run parked at
// the barrier before test ran, plus the recorded walk tail, walking the
// pathfinder to completion first (the walk is amortized across the
// campaign; serve's lazy depth bound does not apply once any run is
// ready to elide). ok is false when no usable tail exists: the walk
// never completed, its end-of-walk audit found violations, the suffix
// from the rung consumed machine randomness, the rung was recorded
// without a fingerprint, or ran lies beyond the recorded ladder.
func (l *ladder) elisionServe(ran int) (rung, *ladderTail, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.sys != nil {
		l.advance()
	}
	t := l.tail
	if t == nil || !t.auditClean {
		return rung{}, nil, false
	}
	// Rung index equals tests completed: rung i is the barrier parked
	// before test i.
	if ran < 0 || ran >= len(l.rungs) {
		return rung{}, nil, false
	}
	rg := l.rungs[ran]
	if !rg.fpOK || rg.prefix.Ran != ran {
		return rung{}, nil, false
	}
	if rg.rng != t.rng || rg.ipcHas != t.ipcHas || rg.ipcRNG != t.ipcRNG {
		return rung{}, nil, false
	}
	return rg, t, true
}

func cloneCounts(src map[siteKey]int) map[siteKey]int {
	out := make(map[siteKey]int, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

func cloneReport(src testsuite.Report) testsuite.Report {
	src.FailedNames = append([]string(nil), src.FailedNames...)
	return src
}

// snapCache is the byte-budgeted LRU over rung snapshots. Rung 0 — the
// boot barrier, the universal fallback — is pinned outside the budget.
// Snapshots handed out stay valid after eviction (they are immutable
// and the caller holds a reference); eviction only frees the cache's
// own reference.
type snapCache struct {
	budget int64
	used   int64
	rung0  *boot.Snapshot
	snaps  map[int]*boot.Snapshot
	sizes  map[int]int64
	lru    []int // least recently used first
}

func newSnapCache(budget int64, rung0 *boot.Snapshot) *snapCache {
	return &snapCache{
		budget: budget,
		rung0:  rung0,
		snaps:  make(map[int]*boot.Snapshot),
		sizes:  make(map[int]int64),
	}
}

// add inserts a rung snapshot, evicting least-recently-served rungs
// until the budget holds. Snapshots larger than the whole budget are
// not cached at all.
func (c *snapCache) add(idx int, snap *boot.Snapshot) {
	if c.budget < 0 {
		return
	}
	size := snap.SizeBytes()
	if size > c.budget {
		return
	}
	c.snaps[idx] = snap
	c.sizes[idx] = size
	c.used += size
	c.lru = append(c.lru, idx)
	c.evict()
}

// charge permanently accounts n bytes of un-evictable ladder records
// (rung fingerprint/delta records, the walk tail) against the budget,
// evicting cached snapshots to make room. Records themselves are never
// evicted — they anchor occurrence translation and elision — so their
// cost comes out of the snapshot side of the budget.
func (c *snapCache) charge(n int64) {
	if c.budget < 0 {
		return
	}
	c.used += n
	c.evict()
}

// evict drops least-recently-served snapshots until the budget holds
// (or no evictable snapshot remains).
func (c *snapCache) evict() {
	for c.used > c.budget && len(c.lru) > 0 {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		c.used -= c.sizes[victim]
		delete(c.snaps, victim)
		delete(c.sizes, victim)
	}
}

// deepest returns the deepest cached rung at or above index 0 and at or
// below maxIdx, falling back to the pinned rung 0.
func (c *snapCache) deepest(maxIdx int) (int, *boot.Snapshot) {
	for i := maxIdx; i >= 1; i-- {
		if snap, ok := c.snaps[i]; ok {
			c.touch(i)
			return i, snap
		}
	}
	return 0, c.rung0
}

// touch marks a rung most-recently-served.
func (c *snapCache) touch(idx int) {
	for i, v := range c.lru {
		if v == idx {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			c.lru = append(c.lru, idx)
			return
		}
	}
}
