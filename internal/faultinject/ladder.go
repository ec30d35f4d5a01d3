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
	"sync"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/testsuite"
)

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
}

// suffixKey names a machine state parked at a suite barrier: how many
// tests had completed there and what the state hashed to.
type suffixKey struct {
	barrier int
	fp      uint64
}

// suffixEnd is how one fully executed machine ended — final suite tally,
// outcome, the kernel's reason — shared by every entry the machine
// published. Cycles and counters are deliberately absent: no result, trace
// or journal record carries them. Immutable once published.
type suffixEnd struct {
	report  testsuite.Report
	outcome kernel.RunOutcome
	reason  string
	// rejoined marks an armed run's end rather than the pathfinder walk's;
	// it only labels the splice (PlaneStats.Rejoined).
	rejoined bool
}

// suffixRecord is one table entry: the contributor's end and its suite
// tally at the keyed barrier (names is len(FailedNames) there). What
// executing the suite from the keyed state adds to a campaign result is
// the difference. Kept to 24 bytes — a campaign publishes thousands.
type suffixRecord struct {
	end                        *suffixEnd
	ran, passed, failed, names int32
}

// suffixStamp is what must stand still across a suffix for it to be
// publishable. Both machine RNG streams: a suffix that starts and ends on
// equal cursors consumed no randomness, so it is a function of the
// fingerprinted state alone (see sim.RNG.State). And the recovery count:
// MultiRunResult reports it and a spliced run keeps its own, and a
// restart in the suffix could have fired a during-recovery fault the
// next run does not carry.
type suffixStamp struct {
	rng, ipcRNG uint64
	ipcHas      bool
	recoveries  int
}

func stampOf(sys *boot.System) suffixStamp {
	k := sys.Kernel()
	st := suffixStamp{rng: k.RNGState(), recoveries: sys.Recoveries}
	st.ipcRNG, st.ipcHas = k.IPCRNGState()
	return st
}

// candidate is a barrier state a fully executing machine — the
// pathfinder at every rung, an armed run at every lookup it missed —
// may publish once it knows its own end.
type candidate struct {
	key suffixKey
	// prefix is the suite tally at the barrier. FailedNames aliases the
	// live report's append-only slice; only its length is read.
	prefix testsuite.Report
	stamp  suffixStamp
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
	cands  []candidate // the walk's own candidates, published at its end
	// noElide pins the ladder's runs to full execution
	// (PlaneOptions.NoElide): the walk hashes nothing and the table never
	// opens.
	noElide bool
	// table maps barrier states to recorded suffixes; nil until the walk
	// has completed cleanly and published, which also opens it to armed
	// runs' entries.
	table map[suffixKey]suffixRecord
}

// newLadder boots the pathfinder for cfg (plus the suite registry and
// heartbeats, exactly as every campaign run boots), drives it to the
// post-install boot barrier and captures rung 0. Returns nil when the
// machine never quiesced there — callers fall back to cold boots. When
// the resolved cache budget is negative the ladder is disabled: the
// pathfinder is torn down at rung 0 and the ladder degenerates to the
// PR 7 single-snapshot plane.
func newLadder(cfg core.Config, noElide bool) *ladder {
	report := new(testsuite.Report)
	opts := suiteOptions(cfg)
	sys := boot.Boot(opts, testsuite.RunnerInit(report))

	l := &ladder{opts: opts, sys: sys, report: report, counts: make(map[siteKey]int), noElide: noElide}
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

// recordRung appends the parked pathfinder's rung record — cumulative
// site counts and suite tally — and, unless elision is pinned off, keeps
// the rung as a suffix-table candidate. The record's retained bytes are
// charged against the snapshot cache budget (records are never evicted —
// they anchor occurrence translation — so their cost comes out of the
// snapshot side of the budget). Caller holds l.mu with the pathfinder
// parked at a barrier.
func (l *ladder) recordRung() {
	rg := rung{counts: cloneCounts(l.counts), prefix: cloneReport(*l.report)}
	// With elision pinned off no armed run will ever look a state up, so
	// the walk skips the per-rung hashing entirely — the oracle pays none
	// of the elision plane's cost.
	if !l.noElide {
		if fp, err := l.sys.StateFingerprint(); err == nil {
			l.cands = append(l.cands, candidate{
				key:    suffixKey{barrier: rg.prefix.Ran, fp: fp},
				prefix: rg.prefix,
				stamp:  stampOf(l.sys),
			})
		}
	}
	l.rungs = append(l.rungs, rg)
	l.cache.charge(rungRecordBytes(rg))
}

// recordTail ends a completed walk: it publishes the rungs as the suffix
// table's first entries, under the same certificate an armed run's
// candidates face. A pathfinder that hit
// the cycle limit or deadlocked, or whose end-of-walk audit found a
// violation, publishes nothing; the table then stays closed and every
// run executes in full. Caller holds l.mu; the machine is done but not
// yet torn down.
func (l *ladder) recordTail() {
	if l.noElide {
		return
	}
	res := l.sys.Kernel().StepResult()
	clean := res.Outcome == kernel.OutcomeCompleted && len(audit.Check(audit.Capture(l.sys.OS))) == 0
	l.publish(l.cands, l.report, res, clean, stampOf(l.sys), false)
	l.cands = nil
}

// publish offers the candidates of a machine that executed to its end to
// the suffix table. The certificate: the run completed, every audit pass
// including the final one was clean (a spliced run inherits that verdict
// in place of its own final pass), and the stamp stands where the
// candidate left it — the suffix drew no randomness and ran no recovery,
// so it is a function of the fingerprinted state alone. The first writer
// of a key wins: by that same argument any later writer would record the
// same suffix. The pathfinder's publication opens the table (armed runs
// keep candidates only once lookup reports it open); an armed run's
// entries (rejoined) are kept only while their bytes still fit the
// snapshot budget. Caller holds l.mu.
func (l *ladder) publish(cands []candidate, end *testsuite.Report, res kernel.Result, clean bool, at suffixStamp, rejoined bool) {
	if res.Outcome != kernel.OutcomeCompleted || !clean {
		return
	}
	if l.table == nil {
		l.table = make(map[suffixKey]suffixRecord, len(cands))
	}
	// One end record serves every entry of this machine; its bytes are
	// charged with the first entry kept.
	var shared *suffixEnd
	for _, c := range cands {
		if c.stamp != at {
			continue
		}
		if _, dup := l.table[c.key]; dup {
			continue
		}
		n := int64(suffixEntryBytes)
		if shared == nil {
			n += suffixEndBytes(end)
		}
		if rejoined && !l.cache.roomFor(n) {
			continue
		}
		if shared == nil {
			shared = &suffixEnd{report: cloneReport(*end), outcome: res.Outcome, reason: res.Reason, rejoined: rejoined}
		}
		l.cache.charge(n)
		l.table[c.key] = suffixRecord{
			end:    shared,
			ran:    int32(c.prefix.Ran),
			passed: int32(c.prefix.Passed),
			failed: int32(c.prefix.Failed),
			names:  int32(len(c.prefix.FailedNames)),
		}
	}
}

// rungRecordBytes estimates the retained size of one rung record for
// cache accounting: map header and entries, key strings, and the suite
// tally.
func rungRecordBytes(rg rung) int64 {
	n := int64(128)
	for key := range rg.counts {
		n += 64 + int64(len(key[0])+len(key[1]))
	}
	for _, s := range rg.prefix.FailedNames {
		n += 16 + int64(len(s))
	}
	return n
}

// suffixEntryBytes estimates the retained size of one suffix-table entry:
// 16-byte key, 24-byte record, and the map's slack (a map that splits
// when full runs between 42 % and 87 % load).
const suffixEntryBytes = 96

// suffixEndBytes estimates the retained size of the end record a
// publishing machine shares among its entries.
func suffixEndBytes(end *testsuite.Report) int64 {
	n := int64(96)
	for _, s := range end.FailedNames {
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

// Close tears down the pathfinder machine (its coroutines stay parked
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
		// additionally opens the suffix table.
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

// serve picks the rung a run armed with faults forks from: the deepest
// cached rung strictly before every plain trigger, walking the
// pathfinder only as deep as this request needs. It returns the serving
// rung's index, record and snapshot, with ok=false when any occurrence
// is consumed before the boot barrier (the run must boot cold — PR 7
// behavior). Correlated and during-recovery faults anchor nothing; a
// plan of only those serves rung 0, the one barrier known-sound without
// a plain trigger. A fault-free run (no faults at all: zero-rate sweep
// points) has no trigger to stay ahead of, so any rung is sound: the
// ladder is walked to its end and the deepest cached rung served.
func (l *ladder) serve(faults []MultiInjection) (int, rung, *boot.Snapshot, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := 0
	if len(faults) == 0 {
		for l.sys != nil {
			l.advance()
		}
		best = len(l.rungs) - 1
	}
	anchored := false
	for _, inj := range faults {
		if inj.Correlated || inj.DuringRecovery {
			continue
		}
		key := siteKey{inj.Server, inj.Site}
		if inj.Occurrence-l.rungs[0].counts[key] < 1 {
			return 0, rung{}, nil, false
		}
		for l.sys != nil && l.rungs[len(l.rungs)-1].counts[key] < inj.Occurrence {
			l.advance()
		}
		b := 0
		for i := len(l.rungs) - 1; i >= 0; i-- {
			if l.rungs[i].counts[key] < inj.Occurrence {
				b = i
				break
			}
		}
		if !anchored || b < best {
			best, anchored = b, true
		}
	}
	idx, snap := l.cache.deepest(best)
	return idx, l.rungs[idx], snap, true
}

// lookup walks the pathfinder to completion (the walk is amortized across
// the campaign; serve's lazy depth bound does not apply once any run is
// ready to elide) and returns the suffix recorded for a machine parked at
// key. open reports whether the walk opened the table at all.
func (l *ladder) lookup(key suffixKey) (rec suffixRecord, open, hit bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.sys != nil {
		l.advance()
	}
	rec, hit = l.table[key]
	return rec, l.table != nil, hit
}

// publishRun is publish for an armed run that executed to its end.
func (l *ladder) publishRun(cands []candidate, end *testsuite.Report, res kernel.Result, clean bool, at suffixStamp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publish(cands, end, res, clean, at, true)
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
	// records is the part of used that charge accounted: bytes no
	// eviction can win back.
	records int64
	rung0   *boot.Snapshot
	snaps   map[int]*boot.Snapshot
	sizes   map[int]int64
	lru     []int // least recently used first
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
// (rung records, suffix-table entries) against the budget, evicting
// cached snapshots to make room. Records themselves are never evicted —
// they anchor occurrence translation and elision — so their cost comes
// out of the snapshot side of the budget.
func (c *snapCache) charge(n int64) {
	if c.budget < 0 {
		return
	}
	c.records += n
	c.used += n
	c.evict()
}

// roomFor reports whether n more bytes of records would still fit the
// budget with every snapshot evicted. The ladder cannot do without its
// own records and charges them regardless; a campaign's worth of
// armed-run entries may crowd snapshots out, but must not grow past the
// bound the user set.
func (c *snapCache) roomFor(n int64) bool {
	return c.budget >= 0 && c.records+n <= c.budget
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
