package kernel

import "repro/internal/sim"

// This file is the external stepping interface: it lets a driver that
// owns several machines (the cluster composer) advance each one to a
// common virtual-time boundary, interleave cross-machine events between
// slices, and tear machines down out-of-band (node crashes).
//
// StepUntil executes exactly the Run loop, with two deliberate
// differences:
//
//   - it stops when the machine's clock reaches the slice target
//     instead of running to completion, leaving every process parked at
//     a baton boundary (k.running == nil), so the driver may inject
//     messages (PostMessage), fail-stop components, or read state
//     between slices;
//
//   - an idle machine is NOT a deadlock. A node whose servers are all
//     blocked in Receive is simply waiting for network input that a
//     future slice may deliver, so StepUntil advances the clock to the
//     target and returns instead of declaring OutcomeDeadlock. No event
//     is skipped by doing so: if the earliest internal event is due
//     after the target, it fires in a later slice at its own deadline,
//     exactly when Run's event jump would have fired it.

// stepNone is the "machine not externally stepped" sentinel of
// Kernel.stepTarget (same trick as ipcNone/ipcNextDue).
const stepNone = ^sim.Cycles(0)

// BeginSteps prepares the machine for external stepping and latches
// the lifetime cycle budget (the analogue of Run's cycleLimit). Call
// once after boot, before the first StepUntil.
func (k *Kernel) BeginSteps(cycleLimit sim.Cycles) {
	k.cycleLimit = cycleLimit
}

// StepUntil advances the machine until its virtual clock reaches
// target or the run finishes, and reports whether the machine is done.
// The caller regains control with no process running; clock time never
// exceeds target unless a dispatched process overshoots its final
// quantum (bounded by one Tick charge).
func (k *Kernel) StepUntil(target sim.Cycles) bool {
	if k.done {
		return true
	}
	k.stepTarget = target
	defer func() { k.stepTarget = stepNone }()
	for !k.done && k.clock.Now() < target {
		if !k.turn() {
			continue
		}
		next, have := k.nextEventTime()
		if !have || next >= target {
			// Idle until the slice boundary: park there and hand the
			// baton back to the driver.
			next = target
		}
		if next > k.clock.Now() {
			k.clock.Advance(next - k.clock.Now())
		}
	}
	return k.done
}

// StepResult summarizes a finished externally-stepped machine; it
// matches what Run would have returned.
func (k *Kernel) StepResult() Result {
	return Result{Outcome: k.outcome, Reason: k.reason, Cycles: k.clock.Now()}
}

// Teardown force-stops an externally-stepped machine and reaps every
// process goroutine (Run does this via its deferred killAll). The
// cluster uses it for node crashes and end-of-run shutdown. Idempotent.
func (k *Kernel) Teardown(reason string) {
	if !k.done {
		k.done = true
		k.outcome = OutcomeShutdown
		k.reason = reason
	}
	k.killAll()
}
