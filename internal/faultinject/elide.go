package faultinject

// Tail elision: in a deterministic machine equal state is equal future,
// so a suite suffix somebody already executed from this state need not
// be executed again. An armed run forks from a ladder rung, executes
// until its fault triggers and recovery completes, and from then on is
// fault-free. At every quiescence barrier after that it hashes its own
// semantic state (O(dirty) via the rolling store/disk fingerprints — a
// barrier does not rescan clean containers) and looks (barrier, hash) up
// in the ladder's suffix table. A hit splices the recorded suffix — suite
// tallies, failed-test names, how the machine ended — and terminates the
// run; the spliced result is bit-identical to full execution because the
// suffix is a deterministic function of the matched state and consumed
// no machine randomness (certified when the entry was published; see
// ladder.publish).
//
// Two kinds of machine contribute entries, through one publish path. The
// fault-free pathfinder contributes every rung of its walk: a run that
// hits one of those has converged back onto the fault-free trace, the
// paper's central claim. An armed run that passed every gate below but
// missed contributes the states it missed on, once it has executed to a
// clean completed end: recovery that is transparent need not be
// invisible — a test the fault killed forked fewer children, so the rest
// of the suite runs one PID over and never matches the pathfinder again —
// but the next run whose fault kills the same test the same way lands on
// the same state and rejoins the earlier run's suffix.
//
// Soundness gates, each with a named per-run fallback reason:
//
//   - the run must not be pinned to full execution (PlaneOptions.NoElide
//     — the bit-identity oracle; no table exists then);
//   - every armed fault that could still fire in the suffix must have
//     triggered (persistent faults re-fire forever, so they never
//     elide);
//   - the machine must be elision-quiescent with no permanent fault
//     residue (no quarantine), and every audit pass so far — including
//     a barrier-time pass — must be clean, because a violation embeds
//     its timestamp and an elided run could not reproduce the final
//     pass a full run would record;
//   - the completed pathfinder walk must have opened the table;
//   - the table must hold the run's (barrier, fingerprint).
//
// A run that never elides executes in full — same machine, same
// schedule, bit-identical outcome — and is charged the reason the last
// barrier it reached gave, or ended-before-barrier when its faults had
// not all fired there yet but have by the time it ends.
//
// Wedge certificate: the second redundant suffix. A run whose fault
// killed the event a test waits for never reaches another barrier: the
// machine goes idle, and the rest of the 4 G-cycle budget is ~16 000
// identical heartbeat rounds (RS pinging healthy servers) until the
// cycle limit classifies it a hang. In a deterministic machine a
// recurring state is its own future, so the hang can be proven instead
// of waited for. The kernel calls the elider at every idle point — no
// process runnable, before the clock jumps to the next event — and the
// elider there requires, in this order:
//
//   - no armed fault can still fire (ready, as for elision; an
//     untriggered fault at rs.heartbeat or a *.loop.top site WILL fire
//     later in the idle regime);
//   - the kernel is wedge-quiescent (kernel.WedgeQuiescent: only a
//     server alarm can move the machine again);
//   - the idle point equals the previous one in state fingerprint,
//     transient component state (RS's outstanding pings live outside its
//     store), and kernel stamp — user wake-ups, trapped crashes, both
//     RNG cursors, the phase of every pending alarm (kernel.WedgeStamp).
//
// wedgeRounds consecutive equal idle points certify the run: the kernel
// ends it exactly as the limit would — OutcomeHang, "cycle limit
// exceeded" — and teardown proceeds as for any finished run. Only
// kernel.Result.Cycles and the counter map differ from a run that
// burned the budget (they are those at certification), and no campaign
// result, trace or journal record carries either. A warm run that does
// reach the real limit uncertified is charged ElideFallbackWedgeUnproven.
// Cold runs and Trace.Replay never install the hook and the -noelide pin
// disables it together with elision, so full execution stays the oracle.

import (
	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/kernel"
	"repro/internal/servers/rs"
	"repro/internal/testsuite"
)

// elider is the per-run elision context of a warm-served campaign run:
// the ladder carrying the suffix table, the predicate deciding whether
// any armed fault could still fire in the suffix, and the run's serving
// decision, whose tail half runElidable fills in.
type elider struct {
	l *ladder
	// sv starts as the fork from its rung and ends as how the run was ultimately
	// served: spliced, certified wedged, or executed in full and charged
	// a fallback reason.
	sv Serving
	// ready reports that no armed fault can fire in the remaining
	// suffix: every fault that could has triggered, and none re-fires.
	// execute, which arms the faults, installs it.
	ready func() bool
	// attempts counts table lookups spent so far (see maxElideAttempts).
	attempts int
	// closed latches a lookup's verdict that the walk ended without
	// opening the table: there is nothing to look up, now or later.
	closed bool
	// cands are the barrier states this run looked up and missed; it
	// publishes them if it executes to a clean completed end.
	cands []candidate

	// Wedge-certificate window: the last idle point that passed every
	// gate and how many consecutive idle points equalled it. probes
	// counts idle points hashed since a user process last ran (see
	// maxWedgeProbes).
	idle   idlePoint
	streak int
	probes int
}

// idlePoint is everything two idle points must agree on for the round
// between them to count as a recurrence.
type idlePoint struct {
	fp, transient uint64
	stamp         kernel.WedgeStamp
}

// wedgeRounds is how many consecutive equal idle points certify a
// wedge. One equal pair already proves the round between them maps the
// state onto itself; the window is widened past the Recovery Server's
// longest memory — rs.HangMisses rounds of silence before it acts,
// plus the round that acts — so that nothing RS is still counting
// towards can be pending inside it.
const wedgeRounds = rs.HangMisses + 2

// maxWedgeProbes bounds the idle points a run pays to hash in a row
// without a user process having run in between. A wedge recurs from its
// first idle round or — state that moves every round, such as transport
// sequence numbers under the reliability layer — never; without the
// bound such a run would hash itself ~16 000 times on its way to the
// limit (+60 % on an already worst-case run). A user wake-up starts a
// fresh budget: the idle stretches of a healthy suite (sleeps, waits)
// must not use up what the wedge after them needs, and the bound is
// generous because a wedge can take hundreds of rounds to settle (a
// stale PM sleep timer still counting down shifts the alarm phase every
// round until it fires). Purely a cost bound: giving up runs to the real
// limit, bit-identically.
const maxWedgeProbes = 1024

// maxElideAttempts bounds the table lookups one run pays for. A
// recovered run lands on a known state within a few barriers or not at
// all — the residue of a killed test lasts until machine end — so after
// this many misses the run stops re-hashing its state at every remaining
// barrier and simply executes the suffix. It also bounds what one run
// can add to the table. Purely a cost bound: giving up always falls back
// to bit-identical full execution.
const maxElideAttempts = 8

// runElidable drives a machine to the end of its run and takes the final
// audit pass of a run that completed. With a nil elider (cold boots) or
// elision pinned off that is ordinary full execution. A warm fork is
// driven barrier to barrier instead, attempting a suffix-table splice at
// each quiescence barrier; the barrier-to-barrier drive is bit-identical
// to sys.Run: Context.Barrier costs no cycles, counters or scheduling
// effects, and the loop body is Run's (the same invariant the ladder
// pathfinder rests on). A warm run that executes to its end offers the
// barrier states it looked up and missed to the table.
func runElidable(sys *boot.System, report *testsuite.Report, aud *audit.Auditor, el *elider) kernel.Result {
	if el == nil || el.l == nil {
		return runFull(sys, aud)
	}
	if el.l.noElide {
		el.sv.Fallback = ElideFallbackPinned
		return runFull(sys, aud)
	}
	k := sys.Kernel()
	k.SetIdleHook(func() bool { return el.wedged(sys) })
	// A fork is parked at its rung's barrier with its faults still ahead,
	// so every run consults the gates at least once and is told this.
	reason := ElideFallbackUntriggered
	for k.RunToBarrier(RunLimit) {
		res, why, ok := el.tryElide(sys, report, aud)
		if ok {
			// A spliced run skips the final audit pass: its gates already
			// required every prior pass plus a barrier-time pass to be
			// clean, and the entry's contributor passed its own.
			return res
		}
		reason = why
	}
	// The run finished (completed, crashed, hung or shut down) without
	// eliding: tear the machine down exactly as sys.Run would and
	// charge the last blocking reason.
	res := k.StepResult()
	end := stampOf(sys)
	sys.Shutdown("armed run complete")
	if res.Outcome == kernel.OutcomeCompleted {
		aud.Final()
	}
	switch {
	case el.streak >= wedgeRounds:
		el.sv.Plane, el.sv.At = PlaneWedged, uint64(res.Cycles)
	case res.Outcome == kernel.OutcomeHang:
		el.sv.Fallback = ElideFallbackWedgeUnproven
	case reason == ElideFallbackUntriggered && el.ready():
		// The last barrier's verdict is stale: the faults have fired since,
		// and the run ended before reaching another.
		el.sv.Fallback = ElideFallbackEndedEarly
	default:
		el.sv.Fallback = reason
	}
	if len(el.cands) > 0 {
		el.l.publishRun(el.cands, report, res, aud.Consistent(), end)
	}
	return res
}

// runFull is ordinary full execution: sys.Run plus the final audit pass
// of a run that completed.
func runFull(sys *boot.System, aud *audit.Auditor) kernel.Result {
	res := sys.Run(RunLimit)
	if res.Outcome == kernel.OutcomeCompleted {
		aud.Final()
	}
	return res
}

// wedged is the kernel idle hook of a warm-served run: it slides the
// certificate window over one idle point and reports whether the window
// is full — the run provably idles like this until the cycle limit. An
// idle point that fails a gate empties the window.
func (el *elider) wedged(sys *boot.System) bool {
	pt, ok := el.idlePointOf(sys)
	switch {
	case !ok:
		el.streak = 0
	case el.streak > 0 && pt == el.idle:
		el.streak++
	default:
		el.idle, el.streak = pt, 1
	}
	return el.streak >= wedgeRounds
}

// idlePointOf evaluates the wedge gates on an idle machine, cheapest
// first, and describes the idle point when all of them hold.
func (el *elider) idlePointOf(sys *boot.System) (idlePoint, bool) {
	k := sys.Kernel()
	if !el.ready() || !k.WedgeQuiescent() {
		return idlePoint{}, false
	}
	stamp := k.WedgeStamp()
	if stamp.UserWakes != el.idle.stamp.UserWakes {
		el.probes = 0
	}
	if el.probes >= maxWedgeProbes {
		return idlePoint{}, false
	}
	el.probes++
	fp, err := sys.StateFingerprint()
	if err != nil {
		return idlePoint{}, false
	}
	transient, err := sys.TransientDigest(boot.TransientCoder)
	if err != nil {
		return idlePoint{}, false
	}
	return idlePoint{fp: fp, transient: transient, stamp: stamp}, true
}

// tryElide evaluates the elision gates at one quiescence barrier. On
// success the suffix has been spliced onto report, the machine shut down
// and the returned result is final; otherwise the blocking reason is
// returned and the run keeps executing.
func (el *elider) tryElide(sys *boot.System, report *testsuite.Report, aud *audit.Auditor) (kernel.Result, string, bool) {
	if !el.ready() {
		return kernel.Result{}, ElideFallbackUntriggered, false
	}
	if !sys.ElideQuiescent() {
		return kernel.Result{}, ElideFallbackResidue, false
	}
	if !aud.Consistent() {
		return kernel.Result{}, ElideFallbackResidue, false
	}
	if el.closed {
		return kernel.Result{}, ElideFallbackNoTail, false
	}
	if el.attempts >= maxElideAttempts {
		return kernel.Result{}, ElideFallbackMismatch, false
	}
	el.attempts++
	fp, err := sys.StateFingerprint()
	if err != nil {
		return kernel.Result{}, ElideFallbackMismatch, false
	}
	key := suffixKey{barrier: report.Ran, fp: fp}
	rec, open, hit := el.l.lookup(key)
	if !open {
		el.closed = true
		return kernel.Result{}, ElideFallbackNoTail, false
	}
	if !hit {
		// Nobody has executed from here yet. If this run gets to its end it
		// will have, and can say what the suffix added.
		el.cands = append(el.cands, candidate{key: key, prefix: *report, stamp: stampOf(sys)})
		return kernel.Result{}, ElideFallbackMismatch, false
	}
	// Only a table hit pays for the barrier-time audit pass (it captures
	// the whole machine): every audit so far was clean, and this pass
	// must be too — a full run's final audit would otherwise record
	// violations (with end-of-run timestamps) that a spliced result
	// cannot carry.
	if len(audit.Check(audit.Capture(sys.OS))) != 0 {
		return kernel.Result{}, ElideFallbackResidue, false
	}
	// The suffix tallies and the way the machine ends are deterministic
	// functions of the matched state, so what the contributor added from
	// here on is exactly what full execution would add. Cycles and counters stay those at the
	// splice; nothing a campaign reports carries them.
	end := rec.end
	el.sv.Plane, el.sv.At = PlaneElided, uint64(report.Ran)
	if end.rejoined {
		el.sv.Plane = PlaneRejoined
	}
	report.Ran += end.report.Ran - int(rec.ran)
	report.Passed += end.report.Passed - int(rec.passed)
	report.Failed += end.report.Failed - int(rec.failed)
	report.FailedNames = append(report.FailedNames, end.report.FailedNames[rec.names:]...)
	res := kernel.Result{Outcome: end.outcome, Reason: end.reason, Cycles: sys.Kernel().Now()}
	sys.Shutdown("run elided at quiescence barrier")
	return res, "", true
}
