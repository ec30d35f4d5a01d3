package kernel

// This file is the kernel half of the wedge certificate (see
// faultinject/elide.go): deciding whether an idle machine is at a point
// from which only server alarms can ever move it, and exposing the
// residue the state fingerprint deliberately leaves out but a recurrence
// proof still needs. Both are only ever called from an idle hook
// (SetIdleHook) — nothing here sits on the dispatch path.

import "repro/internal/sim"

// WedgeQuiescent reports whether an idle machine (no runnable process)
// can be moved again only by a server-owned alarm, each clause removing
// one other source of future behaviour:
//
//   - no recovery in progress and no queued or deferred crash: a
//     restart would deliver replies;
//   - no reply-errno override: an armed wrong-errno fault has not
//     manifested yet;
//   - no quarantine: the degraded machine answers IPC with ECRASH from
//     kernel state the fingerprint does not cover;
//   - no pending IPC-plane event (held, delayed or ARQ message, armed
//     reliable-send deadline) and no armed one-shot transport fault: the
//     transport would deliver, retransmit, time a sender out or strike
//     the next heartbeat ping;
//   - every live alarm owned by a server: a user alarm ends a sleep;
//   - every live server parked in Receive and every live user process
//     parked in Receive or SendRec, all with empty inboxes and no
//     undelivered reply: anything else is work in flight.
func (k *Kernel) WedgeQuiescent() bool {
	if k.done || k.inRecovery {
		return false
	}
	if len(k.pendingCrashes) > 0 || len(k.replyErrnoOverride) > 0 || len(k.quarantined) > 0 {
		return false
	}
	if k.ipcNextDue != ipcNone || (k.ipc != nil && len(k.ipc.armed) > 0) {
		return false
	}
	for _, a := range k.alarms {
		if p := k.procs.get(a.ep); p != nil && p.Alive() && !p.isServer {
			return false
		}
	}
	for _, ep := range k.order {
		p := k.procs.get(ep)
		if p == nil {
			return false
		}
		if !p.Alive() {
			// Exited or fail-stopped for good (a crashed process with a
			// recovery still owed was refused above): inert.
			continue
		}
		if p.queueLen() > 0 || p.reply != nil {
			return false
		}
		if p.state != stateReceiving && (p.isServer || p.state != stateSendRec) {
			return false
		}
	}
	return true
}

// WedgeStamp is the kernel residue a wedge certificate compares between
// idle points on top of the state fingerprint. Equal stamps prove that
// in between no user process was made schedulable (their progress lives
// on coroutine stacks the fingerprint cannot see), no crash was trapped
// and neither random stream was drawn from — and that the pending
// alarms stand in the same phase to the clock. The fingerprint hashes
// server alarms by owner and count only, which is right for a heartbeat
// that re-arms itself every round and wrong for a one-shot deadline: a
// PM-held sleep timer moves one period closer each round, and firing it
// wakes a user.
type WedgeStamp struct {
	UserWakes   uint64
	Crashes     uint64
	RNG, IPCRNG uint64
	Alarms      uint64
}

// WedgeStamp returns the current stamp.
func (k *Kernel) WedgeStamp() WedgeStamp {
	s := WedgeStamp{
		UserWakes: k.userWakes,
		Crashes:   k.counters.GetID(ctrPanicsTrapped) + k.counters.GetID(ctrFailstops),
		RNG:       k.rng.State(),
	}
	if k.ipc != nil {
		s.IPCRNG = k.ipc.rng.State()
	}
	// Order-independent sum over the live alarms of (owner, time left):
	// the heap's array order is not canonical.
	now := k.clock.Now()
	for _, a := range k.alarms {
		if p := k.procs.get(a.ep); p == nil || !p.Alive() {
			continue
		}
		f := sim.NewHash()
		f.U64(uint64(a.ep))
		f.U64(uint64(a.deadline - now))
		s.Alarms += f.Sum()
	}
	return s
}
