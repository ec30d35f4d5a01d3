// Package rs implements the Recovery Server's service face: periodic
// heartbeat probing of the other servers (hung-component detection,
// paper §II-E), crash accounting, and status queries. The privileged
// restart/rollback/reconciliation sequencer runs in kernel context (see
// internal/core); in the paper that code is likewise part of the
// Reliable Computing Base.
package rs

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire"
)

// HeartbeatPeriod is the virtual-time interval between heartbeat
// rounds.
const HeartbeatPeriod sim.Cycles = 250_000

// HangMisses is how many consecutive rounds a target may leave
// unanswered before RS declares it hung and fail-stops it so the
// recovery engine can restart it. One round could never tell a hang
// from an in-flight reply.
const HangMisses = 4

// seepPing is the heartbeat probe: a pure query of the target's
// liveness, read-only by construction.
var seepPing = seep.Passage{Name: "rs->*.ping", Class: seep.ClassReadOnly}

// RS is the Recovery Server component.
type RS struct {
	recoveries  *memlog.Cell[int64]
	crashes     *memlog.Map[int64, int64] // victim endpoint -> crash count
	pingRounds  *memlog.Cell[int64]
	lastSeen    *memlog.Map[int64, int64] // endpoint -> last heartbeat time
	quarantines *memlog.Cell[int64]
	hangKills   *memlog.Cell[int64]

	// targets are the endpoints RS probes; fixed at boot (code, not
	// recoverable state).
	targets []kernel.Endpoint

	// Transient prober bookkeeping, deliberately outside the store: if
	// RS itself is recovered, miss counts restart from a clean slate
	// rather than being replayed into a stale kill decision. Per target,
	// by its position in targets: the rounds its pings are outstanding
	// (0 for none) and whether it is quarantined. others holds what
	// concerns an endpoint that is not a target — RS's own quarantine —
	// as the fork state has it.
	outstanding []int
	quarantined []bool
	others      rsForkState
}

// New binds an RS over store. targets are the components to probe.
func New(store *memlog.Store, targets []kernel.Endpoint) *RS {
	return &RS{
		recoveries:  memlog.NewCell(store, "rs.recoveries", int64(0)),
		crashes:     memlog.NewMap[int64, int64](store, "rs.crashes"),
		pingRounds:  memlog.NewCell(store, "rs.ping_rounds", int64(0)),
		lastSeen:    memlog.NewMap[int64, int64](store, "rs.last_seen"),
		quarantines: memlog.NewCell(store, "rs.quarantines", int64(0)),
		hangKills:   memlog.NewCell(store, "rs.hang_kills", int64(0)),
		targets:     targets,
		outstanding: make([]int, len(targets)),
		quarantined: make([]bool, len(targets)),
	}
}

// target returns ep's position in targets, or -1.
func (r *RS) target(ep kernel.Endpoint) int {
	for i, t := range r.targets {
		if t == ep {
			return i
		}
	}
	return -1
}

// forget drops the pings outstanding to ep.
func (r *RS) forget(ep kernel.Endpoint) {
	if i := r.target(ep); i >= 0 {
		r.outstanding[i] = 0
	} else {
		delete(r.others.Outstanding, ep)
	}
}

// Name implements the component interface.
func (r *RS) Name() string { return "rs" }

// Init schedules the first heartbeat round.
func (r *RS) Init(ctx *kernel.Context) {
	ctx.SetAlarm(HeartbeatPeriod)
}

// Ticks Handle charges: every request, a DS event on top, and each
// target a heartbeat round pings.
const (
	handleTicks = 30
	eventTicks  = 10
	pingTicks   = 10
)

// Leaf names the requests Handle serves without suspending RS — the
// heartbeat alarm, a DS event and an asynchronous pong — and bounds
// their ticks: a round's is a ping to every target (core.Leaf). A round
// that declares a target hung fail-stops it without suspending RS.
func (r *RS) Leaf(m *kernel.Message) (sim.Cycles, bool) {
	switch {
	case m.Type == kernel.MsgAlarm:
		return handleTicks + pingTicks*sim.Cycles(len(r.targets)), true
	case m.Type == proto.DSEvent:
		return handleTicks + eventTicks, true
	case m.Type == proto.RSPing && !m.NeedsReply:
		return handleTicks, true
	}
	return 0, false
}

// Handle processes one request.
func (r *RS) Handle(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("rs.handle.entry")
	ctx.Tick(handleTicks)
	switch m.Type {
	case kernel.MsgAlarm:
		r.heartbeat(ctx)
	case kernel.MsgCrashNotify:
		r.crashNotify(ctx, m)
	case kernel.MsgQuarantineNotify:
		r.quarantineNotify(ctx, m)
	case proto.RSStatus:
		ctx.Point("rs.status")
		ctx.Reply(m.From, kernel.Message{A: r.recoveries.Get(), B: int64(len(r.targets))})
	case proto.DSEvent:
		// Subscriber feed from DS: account and move on.
		ctx.Point("rs.dsevent")
		ctx.Tick(eventTicks)
	case proto.RSPing:
		if m.NeedsReply {
			// A liveness query of RS itself.
			ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})
			break
		}
		// An asynchronous pong from a probed target: it answered the
		// heartbeat round, so it is not hung.
		r.pong(ctx, m.From)
	default:
		if m.NeedsReply {
			ctx.ReplyErr(m.From, kernel.ENOSYS)
		}
	}
}

// heartbeat runs one probe round. Pings are asynchronous: a blocking
// probe would hang RS itself on exactly the component it is trying to
// diagnose. Each round first judges the previous rounds' silence, then
// sends the next batch of pings.
func (r *RS) heartbeat(ctx *kernel.Context) {
	ctx.Point("rs.heartbeat")
	r.pingRounds.Set(r.pingRounds.Get() + 1)
	for i, target := range r.targets {
		if r.quarantined[i] {
			continue
		}
		if r.outstanding[i] >= HangMisses {
			if ctx.Kernel().IPCWaiting(target) {
				// Silent but blocked in a kernel-managed reliable send:
				// the reliability layer will unblock it (retransmission,
				// cached-reply redelivery or a synthetic timeout), so the
				// component is live. Hold the count and re-judge next
				// round instead of fail-stopping a waiting sender.
				continue
			}
			r.declareHung(ctx, i)
			continue
		}
		if errno := ctx.SendSeep(seepPing, target, kernel.Message{Type: proto.RSPing}); errno == kernel.OK {
			// The ping is in the target's inbox (or queued for its
			// replacement while a recovery is pending); count the round
			// as outstanding until the pong comes back.
			r.outstanding[i]++
		}
		ctx.Tick(pingTicks)
	}
	ctx.SetAlarm(HeartbeatPeriod)
}

// pong records a heartbeat answer.
func (r *RS) pong(ctx *kernel.Context, from kernel.Endpoint) {
	ctx.Point("rs.pong")
	r.lastSeen.Set(int64(from), int64(ctx.Now()))
	r.forget(from)
}

// declareHung converts a silent component into a fail-stop so the
// recovery engine can handle it like any other crash (§II-E: hangs are
// detected by heartbeat and mapped onto the fail-stop model). i is the
// target's position in targets.
func (r *RS) declareHung(ctx *kernel.Context, i int) {
	ctx.Point("rs.hangkill")
	target := r.targets[i]
	r.outstanding[i] = 0
	reason := fmt.Sprintf("rs: component %d missed %d heartbeat rounds", int(target), HangMisses)
	if errno := ctx.Kernel().FailStopProcess(target, reason); errno == kernel.OK {
		r.hangKills.Set(r.hangKills.Get() + 1)
	}
}

// crashNotify accounts a recovery performed by the engine.
func (r *RS) crashNotify(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("rs.crashnotify")
	victim := m.A
	count, _ := r.crashes.Get(victim)
	r.crashes.Set(victim, count+1)
	r.recoveries.Set(r.recoveries.Get() + 1)
	// A fresh instance is serving the endpoint: forget pings addressed
	// to its predecessor.
	r.forget(kernel.Endpoint(victim))
}

// quarantineNotify accounts a component detached by the sequencer and
// stops probing it (its pings would only fail ECRASH).
func (r *RS) quarantineNotify(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("rs.quarantinenotify")
	r.quarantines.Set(r.quarantines.Get() + 1)
	ep := kernel.Endpoint(m.A)
	if i := r.target(ep); i >= 0 {
		r.quarantined[i] = true
	} else {
		if r.others.Quarantined == nil {
			r.others.Quarantined = make(map[kernel.Endpoint]bool)
		}
		r.others.Quarantined[ep] = true
	}
	r.forget(ep)
}

// rsForkState is the transient prober bookkeeping carried across a warm
// fork. Heartbeat rounds fire during boot, so a forked RS must remember
// which pings were outstanding at the capture point or it would judge
// the silence twice.
type rsForkState struct {
	Outstanding map[kernel.Endpoint]int
	Quarantined map[kernel.Endpoint]bool
}

// Code lists the fork state's fields.
func (s *rsForkState) Code(c *wire.Codec) {
	wire.Map(c, &s.Outstanding, wire.Int[kernel.Endpoint], wire.Int[int])
	wire.Map(c, &s.Quarantined, wire.Int[kernel.Endpoint], (*wire.Codec).Bool)
}

// CodeForkState codes the slot that holds what ForkSnapshot returns —
// nil, or the fork state under its tag rs.forkState — for the on-disk
// image and the transient digest.
func CodeForkState(c *wire.Codec, p *any) {
	wire.Tagged(c, p, "rs.forkState", wire.Elem[rsForkState])
}

// ForkSnapshot deep-copies the transient prober state (core.Forkable),
// keyed by endpoint: a target holds an entry while it has pings
// outstanding or is quarantined.
func (r *RS) ForkSnapshot() any {
	s := rsForkState{
		Outstanding: make(map[kernel.Endpoint]int, len(r.others.Outstanding)),
		Quarantined: make(map[kernel.Endpoint]bool, len(r.others.Quarantined)),
	}
	for i, ep := range r.targets {
		if n := r.outstanding[i]; n != 0 {
			s.Outstanding[ep] = n
		}
		if r.quarantined[i] {
			s.Quarantined[ep] = true
		}
	}
	for ep, n := range r.others.Outstanding {
		s.Outstanding[ep] = n
	}
	for ep, q := range r.others.Quarantined {
		s.Quarantined[ep] = q
	}
	return s
}

// ApplyForkSnapshot installs a copy of a captured prober state into this
// fresh instance. The snapshot is shared across forks and is only read.
// A target's zero count or false mark is no entry, as ForkSnapshot gives
// it.
func (r *RS) ApplyForkSnapshot(snap any) {
	s, ok := snap.(rsForkState)
	if !ok {
		return
	}
	for ep, n := range s.Outstanding {
		if i := r.target(ep); i >= 0 {
			r.outstanding[i] = n
			continue
		}
		if r.others.Outstanding == nil {
			r.others.Outstanding = make(map[kernel.Endpoint]int)
		}
		r.others.Outstanding[ep] = n
	}
	for ep, q := range s.Quarantined {
		if i := r.target(ep); i >= 0 {
			r.quarantined[i] = q
			continue
		}
		if r.others.Quarantined == nil {
			r.others.Quarantined = make(map[kernel.Endpoint]bool)
		}
		r.others.Quarantined[ep] = q
	}
}

// Recoveries reports the number of recoveries RS has accounted.
func (r *RS) Recoveries() int64 { return r.recoveries.Get() }

// Quarantines reports the number of quarantines RS has accounted.
func (r *RS) Quarantines() int64 { return r.quarantines.Get() }

// HangKills reports how many hung components RS has fail-stopped.
func (r *RS) HangKills() int64 { return r.hangKills.Get() }
