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
// cumulative per-site counts, the suite tallies so far and a forkable
// snapshot of the rung. An armed (site, occurrence) then maps to the
// deepest rung strictly before its trigger; the run forks from the
// deepest HELD rung at or before that (a rung whose capture was refused
// holds none), with the occurrence translated into the rung's frame, and
// executes only the suffix.
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
	"slices"
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
	// counts[i] is the cumulative fault-point execution count of the
	// ladder's site i (ladder.sites) from machine start to this rung —
	// the translation frame for armed occurrences. A site first executed
	// after this rung has no entry here and counts zero. Rung 0's counts
	// equal the planner's SiteProfile.Boot offsets (the hook and the
	// barrier sit in the same places).
	counts []int32
	// prefix is the suite tally at this rung: prefix.Ran tests
	// completed, barrier parked before test prefix.Ran.
	prefix testsuite.Report
}

// count is the rung's count of site index i; -1, a site the walk has not
// seen execute, counts zero.
func (rg *rung) count(i int) int {
	if i < 0 || i >= len(rg.counts) {
		return 0
	}
	return int(rg.counts[i])
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
// the recorded rungs, and the snapshots held of them. Everything is
// append-only and nothing is ever evicted, so occurrence translation is
// exact and the rung a run forks from is a function of the walk — of
// the plan — not of the order requests arrive in. Nothing caps it: the
// suite's program boundaries bound the rungs (110) and so the held
// snapshots (one per rung), and maxElideAttempts bounds the suffix
// entries one armed run publishes (8).
type ladder struct {
	mu     sync.Mutex
	opts   boot.Options
	sys    *boot.System      // pathfinder, parked at the last rung; nil once the walk ended
	report *testsuite.Report // pathfinder's live suite tally
	// sites numbers every (server, site) the walk has seen execute, in
	// the order it first did; counts and every rung's counts are indexed
	// by it.
	sites  map[siteKey]int
	counts []int32 // pathfinder's live cumulative site counts
	rungs  []rung
	// snaps[i] is the snapshot of rung i, appended as the walk reaches
	// it. Rung 0's is always held; a later one whose capture was refused
	// (a component mid-request at the barrier) is a nil hole, and serving
	// walks down past it to the deepest held rung.
	snaps []*boot.Snapshot
	cands []candidate // the walk's own candidates, published at its end
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
// machine never quiesced there — callers fall back to cold boots.
func newLadder(cfg core.Config, noElide bool) *ladder {
	report := new(testsuite.Report)
	opts := suiteOptions(cfg)
	sys := boot.Boot(opts, testsuite.RunnerInit(report))

	l := &ladder{opts: opts, sys: sys, report: report, sites: make(map[siteKey]int), noElide: noElide}
	names := sys.ComponentNames()
	sys.Kernel().SetPointHook(func(ep kernel.Endpoint, name, site string) {
		if _, recoverable := names[ep]; !recoverable {
			return
		}
		key := siteKey{name, site}
		i, seen := l.sites[key]
		if !seen {
			i = len(l.counts)
			l.sites[key] = i
			l.counts = append(l.counts, 0)
		}
		l.counts[i]++
	})
	if !sys.Kernel().RunToBarrier(RunLimit) {
		sys.Shutdown("ladder: barrier not reached")
		return nil
	}
	// Recorded, and so fingerprinted, before the capture, as every later
	// rung is (advance): forks of the capture then find its page mixes
	// current rather than each hashing them again.
	l.recordRung()
	snap, err := boot.CaptureParked(sys, opts)
	if err != nil {
		sys.Shutdown("ladder: boot barrier not quiescent")
		return nil
	}
	l.snaps = []*boot.Snapshot{snap}
	return l
}

// recordRung appends the parked pathfinder's rung record — cumulative
// site counts and suite tally — and, unless elision is pinned off, keeps
// the rung as a suffix-table candidate. Caller holds l.mu with the
// pathfinder parked at a barrier.
func (l *ladder) recordRung() {
	rg := rung{counts: slices.Clone(l.counts), prefix: cloneReport(*l.report)}
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
// same suffix. The pathfinder's publication opens the table: armed runs
// keep candidates only once lookup reports it open, so their entries
// (rejoined) come after the walk's. Caller holds l.mu.
func (l *ladder) publish(cands []candidate, end *testsuite.Report, res kernel.Result, clean bool, at suffixStamp, rejoined bool) {
	if res.Outcome != kernel.OutcomeCompleted || !clean {
		return
	}
	if l.table == nil {
		l.table = make(map[suffixKey]suffixRecord, len(cands))
	}
	// One end record serves every entry of this machine.
	var shared *suffixEnd
	for _, c := range cands {
		if c.stamp != at {
			continue
		}
		if _, dup := l.table[c.key]; dup {
			continue
		}
		if shared == nil {
			shared = &suffixEnd{report: cloneReport(*end), outcome: res.Outcome, reason: res.Reason, rejoined: rejoined}
		}
		l.table[c.key] = suffixRecord{
			end:    shared,
			ran:    int32(c.prefix.Ran),
			passed: int32(c.prefix.Passed),
			failed: int32(c.prefix.Failed),
			names:  int32(len(c.prefix.FailedNames)),
		}
	}
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

// advance walks the pathfinder to the next program boundary, records
// the rung and captures its snapshot. A rung whose capture is refused
// still anchors occurrence translation through its record; serving falls
// back to the deepest held rung below it. Caller holds l.mu.
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
	// A refused capture returns nil and leaves a hole: the machine is
	// not quiescent here, and the next rung tries again.
	snap, _ := boot.CaptureParked(l.sys, l.opts)
	l.snaps = append(l.snaps, snap)
}

// start is where a run armed with faults begins: a held rung, its
// snapshot, and per fault the occurrences the rung has already consumed
// (zero for correlated and during-recovery faults, which count from the
// first recovery).
type start struct {
	rung   int
	prefix testsuite.Report
	snap   *boot.Snapshot
	base   []int
}

// serve picks the rung a run armed with faults forks from: the deepest
// held rung strictly before every plain trigger, walking the pathfinder
// only as deep as this request needs. ok is false when any occurrence is
// consumed before the boot barrier (the run must boot cold — PR 7
// behavior). Correlated and during-recovery faults anchor nothing; a
// plan of only those serves rung 0, the one barrier known-sound without
// a plain trigger. A fault-free run (no faults at all: zero-rate sweep
// points) has no trigger to stay ahead of, so any rung is sound: the
// ladder is walked to its end and the deepest held rung served.
func (l *ladder) serve(faults []MultiInjection) (start, bool) {
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
	// site[j] is fault j's site index, -1 for one the walk has not seen
	// execute and for faults that anchor nothing.
	site := make([]int, len(faults))
	for j, inj := range faults {
		site[j] = -1
		if inj.Correlated || inj.DuringRecovery {
			continue
		}
		key := siteKey{inj.Server, inj.Site}
		s, seen := l.sites[key]
		if !seen {
			s = -1
		}
		if inj.Occurrence-l.rungs[0].count(s) < 1 {
			return start{}, false
		}
		for l.sys != nil && l.rungs[len(l.rungs)-1].count(s) < inj.Occurrence {
			l.advance()
			if s < 0 {
				if i, seen := l.sites[key]; seen {
					s = i
				}
			}
		}
		site[j] = s
		b := 0
		for i := len(l.rungs) - 1; i >= 0; i-- {
			if l.rungs[i].count(s) < inj.Occurrence {
				b = i
				break
			}
		}
		if !anchored || b < best {
			best, anchored = b, true
		}
	}
	// The walk has passed rung best, so every rung at or before it has
	// been tried by now; rung 0 is always held.
	i := best
	for l.snaps[i] == nil {
		i--
	}
	rg := &l.rungs[i]
	for j, s := range site {
		site[j] = rg.count(s)
	}
	return start{rung: i, prefix: rg.prefix, snap: l.snaps[i], base: site}, true
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

func cloneReport(src testsuite.Report) testsuite.Report {
	src.FailedNames = append([]string(nil), src.FailedNames...)
	return src
}
