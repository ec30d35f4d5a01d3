package rs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// The responders' counters, registered like every counter of the tree.
var (
	ctrTestPings              = sim.RegisterCounter("test.pings")
	ctrTestPongsAfterRecovery = sim.RegisterCounter("test.pongs_after_recovery")
)

// harness runs RS with heartbeats against a counting ping responder.
func harness(t *testing.T, heartbeats bool, client func(ctx *kernel.Context)) (*RS, *sim.Counters) {
	t.Helper()
	k := kernel.New(kernel.DefaultCostModel(), 1)
	pings := k.Counters()
	k.AddServer(kernel.EpDS, "ds", func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			if m.Type == proto.RSPing {
				pings.AddID(ctrTestPings, 1)
				ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})
				continue
			}
			if m.NeedsReply {
				ctx.ReplyErr(m.From, kernel.OK)
			}
		}
	}, kernel.ServerConfig{})

	store := memlog.NewStore("rs", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	r := New(store, []kernel.Endpoint{kernel.EpDS})
	k.AddServer(kernel.EpRS, "rs", func(ctx *kernel.Context) {
		if heartbeats {
			r.Init(ctx)
		}
		for {
			m := ctx.Receive()
			win.BeginRequest(m.NeedsReply)
			r.Handle(ctx, m)
			win.EndRequest()
		}
	}, kernel.ServerConfig{Window: win, Store: store})

	root := k.SpawnUser("client", client)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(10_000_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	return r, pings
}

func TestHeartbeatRounds(t *testing.T) {
	r, pings := harness(t, true, func(ctx *kernel.Context) {
		// Sleep across several heartbeat periods.
		ctx.SetAlarm(3 * HeartbeatPeriod)
		ctx.Receive()
	})
	if got := pings.GetID(ctrTestPings); got < 2 {
		t.Fatalf("target pinged %d times, want >= 2", got)
	}
	if r.pingRounds.Get() < 2 {
		t.Fatalf("ping rounds = %d, want >= 2", r.pingRounds.Get())
	}
	if _, ok := r.lastSeen.Get(int64(kernel.EpDS)); !ok {
		t.Fatal("no liveness record for the probed target")
	}
}

func TestNoHeartbeatsWhenDisabled(t *testing.T) {
	_, pings := harness(t, false, func(ctx *kernel.Context) {
		ctx.SetAlarm(3 * HeartbeatPeriod)
		ctx.Receive()
	})
	if got := pings.GetID(ctrTestPings); got != 0 {
		t.Fatalf("disabled heartbeats still pinged %d times", got)
	}
}

func TestCrashAccounting(t *testing.T) {
	r, _ := harness(t, false, func(ctx *kernel.Context) {
		for i := 0; i < 3; i++ {
			ctx.Kernel().PostMessage(kernel.EpKernel, kernel.EpRS,
				kernel.Message{Type: kernel.MsgCrashNotify, A: int64(kernel.EpVM)})
		}
		st := ctx.SendRec(kernel.EpRS, kernel.Message{Type: proto.RSStatus})
		if st.Errno != kernel.OK || st.A != 3 {
			t.Errorf("status = %v recoveries=%d, want 3", st.Errno, st.A)
		}
		if st.B != 1 {
			t.Errorf("targets = %d, want 1", st.B)
		}
	})
	if r.Recoveries() != 3 {
		t.Fatalf("Recoveries() = %d, want 3", r.Recoveries())
	}
	if count, _ := r.crashes.Get(int64(kernel.EpVM)); count != 3 {
		t.Fatalf("per-victim count = %d, want 3", count)
	}
}

// TestHangDetectionFailStops: a target that stops answering heartbeats
// is declared hung after HangMisses silent rounds and fail-stopped, so
// the crash handler can restart it like any crashed component; service
// then resumes (§II-E: hangs are mapped onto the fail-stop model).
func TestHangDetectionFailStops(t *testing.T) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	counters := k.Counters()

	healthyBody := func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			if m.Type == proto.RSPing {
				counters.AddID(ctrTestPongsAfterRecovery, 1)
				ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})
				continue
			}
			if m.NeedsReply {
				ctx.ReplyErr(m.From, kernel.OK)
			}
		}
	}
	// The first instance answers one round, then wedges in an infinite
	// loop — a genuine hang, not a crash.
	hangBody := func(ctx *kernel.Context) {
		m := ctx.Receive()
		if m.Type == proto.RSPing {
			ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})
		}
		ctx.Hang()
	}
	k.AddServer(kernel.EpDS, "ds", hangBody, kernel.ServerConfig{})

	recovered := 0
	k.SetCrashHandler(func(info kernel.CrashInfo) error {
		if info.Victim != kernel.EpDS {
			t.Errorf("unexpected crash victim %d", info.Victim)
		}
		recovered++
		_, err := k.ReplaceProcess(kernel.EpDS, "ds", healthyBody, kernel.ServerConfig{})
		return err
	})

	store := memlog.NewStore("rs", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	r := New(store, []kernel.Endpoint{kernel.EpDS})
	k.AddServer(kernel.EpRS, "rs", func(ctx *kernel.Context) {
		r.Init(ctx)
		for {
			m := ctx.Receive()
			win.BeginRequest(m.NeedsReply)
			r.Handle(ctx, m)
			win.EndRequest()
		}
	}, kernel.ServerConfig{Window: win, Store: store})

	root := k.SpawnUser("client", func(ctx *kernel.Context) {
		ctx.SetAlarm(20 * HeartbeatPeriod)
		ctx.Receive()
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(10_000_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if recovered != 1 {
		t.Fatalf("hung component recovered %d times, want 1", recovered)
	}
	if r.HangKills() != 1 {
		t.Fatalf("HangKills() = %d, want 1", r.HangKills())
	}
	if counters.GetID(ctrTestPongsAfterRecovery) == 0 {
		t.Fatal("replacement instance never answered a heartbeat")
	}
	if counters.Get("kernel.failstops") != 1 {
		t.Fatalf("kernel.failstops = %d, want 1", counters.Get("kernel.failstops"))
	}
}

// TestQuarantineNotifyStopsProbing: a quarantine notification makes RS
// account the degraded configuration and drop the component from the
// probe set.
func TestQuarantineNotifyStopsProbing(t *testing.T) {
	r, pings := harness(t, true, func(ctx *kernel.Context) {
		ctx.Kernel().PostMessage(kernel.EpKernel, kernel.EpRS,
			kernel.Message{Type: kernel.MsgQuarantineNotify, A: int64(kernel.EpDS)})
		ctx.SetAlarm(4 * HeartbeatPeriod)
		ctx.Receive()
	})
	if r.Quarantines() != 1 {
		t.Fatalf("Quarantines() = %d, want 1", r.Quarantines())
	}
	// The notification races the first round at most once; after it, DS
	// is never probed again.
	if got := pings.GetID(ctrTestPings); got > 1 {
		t.Fatalf("quarantined target pinged %d times, want <= 1", got)
	}
}

func TestDSEventAbsorbedAndPing(t *testing.T) {
	harness(t, false, func(ctx *kernel.Context) {
		ctx.Send(kernel.EpRS, kernel.Message{Type: proto.DSEvent, A: 1})
		if r := ctx.SendRec(kernel.EpRS, kernel.Message{Type: proto.RSPing}); r.Type != proto.RSPing {
			t.Errorf("ping = %+v", r)
		}
		if r := ctx.SendRec(kernel.EpRS, kernel.Message{Type: 996}); r.Errno != kernel.ENOSYS {
			t.Errorf("unknown = %v", r.Errno)
		}
	})
}

// The fork state's field list against the reflective walk of its
// declaration, alone and in its slot, nil or under its tag.
func TestForkStateFieldList(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[rsForkState])
	wiretest.Register("rs.forkState", rsForkState{})
	wiretest.SameAsAny(t, CodeForkState, func(r *rand.Rand) any {
		if r.Intn(4) == 0 {
			return nil
		}
		return wiretest.Random[rsForkState](r)
	})
}

// The fork state keyed by endpoint, through the per-target bookkeeping:
// a state as the prober makes them — pings outstanding for some targets,
// some targets quarantined, and entries for endpoints that are not
// targets (RS's own quarantine) — applied to a fresh RS comes back from
// ForkSnapshot as it went in, and encodes to the same bytes, which a
// decode applied to another fresh RS gives back once more.
func TestForkStateRoundTrip(t *testing.T) {
	targets := []kernel.Endpoint{kernel.EpPM, kernel.EpVFS, kernel.EpVM, kernel.EpDS}
	others := []kernel.Endpoint{kernel.EpRS, kernel.EpUserBase}
	fresh := func() *RS { return New(memlog.NewStore("rs", memlog.Optimized), targets) }
	encode := func(s any) []byte {
		e := wire.NewEncoder()
		c := wire.Encoding(e)
		if CodeForkState(c, &s); c.Err() != nil {
			t.Fatal(c.Err())
		}
		return e.Bytes()
	}
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		in := rsForkState{Outstanding: map[kernel.Endpoint]int{}, Quarantined: map[kernel.Endpoint]bool{}}
		for _, ep := range append(append([]kernel.Endpoint(nil), targets...), others...) {
			if r.Intn(2) == 0 {
				in.Outstanding[ep] = 1 + r.Intn(HangMisses+1)
			}
			if r.Intn(3) == 0 {
				in.Quarantined[ep] = true
			}
		}
		a := fresh()
		a.ApplyForkSnapshot(in)
		out := a.ForkSnapshot()
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round %d: applied %+v, snapshot %+v", round, in, out)
		}
		data := encode(out)
		if !bytes.Equal(data, encode(in)) {
			t.Fatalf("round %d: the snapshot encodes unlike the state applied", round)
		}
		var decoded any
		if CodeForkState(wire.Decoding(wire.NewDecoder(data)), &decoded); decoded == nil {
			t.Fatalf("round %d: decoded no state", round)
		}
		b := fresh()
		b.ApplyForkSnapshot(decoded)
		if !bytes.Equal(encode(b.ForkSnapshot()), data) {
			t.Fatalf("round %d: a fork of the decoded state encodes differently", round)
		}
	}
}

// stepper registers RS's step as core's loop runs it: Handle inside the
// recovery window (kernel.Stepper).
type stepper struct {
	r   *RS
	win *seep.Window
}

func (s stepper) Step(ctx *kernel.Context, m kernel.Message) {
	s.win.BeginRequest(m.NeedsReply)
	s.r.Handle(ctx, m)
	s.win.EndRequest()
}

func (s stepper) Leaf(m *kernel.Message) (sim.Cycles, bool) { return s.r.Leaf(m) }

// A heartbeat round's bound is a ping to every target. A round that
// probes all of them is served at the client's yield, where the kernel
// holds the step to its bound: an overrun would end the run
// with a kernel fault. The quantum never runs out, so only the bound
// decides.
func TestHeartbeatRoundStaysWithinItsBound(t *testing.T) {
	cost := kernel.DefaultCostModel()
	cost.Quantum = 1 << 40
	k := kernel.New(cost, 1)
	targets := []kernel.Endpoint{kernel.EpPM, kernel.EpVM, kernel.EpVFS, kernel.EpDS, kernel.EpDriver, proto.EpSys}
	for _, ep := range targets {
		k.AddServer(ep, "silent", func(ctx *kernel.Context) {
			for {
				ctx.Receive() // never answers
			}
		}, kernel.ServerConfig{})
	}
	store := memlog.NewStore("rs", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	r := New(store, targets)
	step := stepper{r, win}
	k.AddServer(kernel.EpRS, "rs", func(ctx *kernel.Context) {
		for {
			step.Step(ctx, ctx.Receive())
		}
	}, kernel.ServerConfig{Window: win, Store: store, Step: step})
	root := k.SpawnUser("client", func(ctx *kernel.Context) {
		ctx.Yield() // every server starts and parks at Receive
		alarm := kernel.Message{Type: kernel.MsgAlarm}
		if ticks, _ := r.Leaf(&alarm); ticks != handleTicks+pingTicks*sim.Cycles(len(targets)) {
			t.Errorf("a round declares %d ticks, want %d", ticks, handleTicks+pingTicks*sim.Cycles(len(targets)))
		}
		for round := 0; round < HangMisses-1; round++ {
			served, _ := k.LeafCalls()
			ctx.Kernel().PostMessage(kernel.EpKernel, kernel.EpRS, alarm)
			ctx.Yield()
			if now, _ := k.LeafCalls(); now == served {
				t.Errorf("round %d was not served as a leaf step", round)
			}
		}
		if got := r.pingRounds.Get(); got != HangMisses-1 {
			t.Errorf("%d rounds ran, want %d", got, HangMisses-1)
		}
		for i := range targets {
			if r.outstanding[i] != HangMisses-1 {
				t.Errorf("target %d has %d rounds outstanding, want every round to probe it", targets[i], r.outstanding[i])
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}
