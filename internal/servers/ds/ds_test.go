package ds

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
)

// harness runs a DS instance in the standard event loop plus a stub RS
// that absorbs its event notifications, then drives client.
func harness(t *testing.T, policy seep.Policy, client func(ctx *kernel.Context)) (*memlog.Store, *seep.Window) {
	t.Helper()
	k := kernel.New(kernel.DefaultCostModel(), 1)
	store := memlog.NewStore("ds", policy.Instrumentation())
	win := seep.NewWindow(policy, store)
	d := New(store)
	k.AddServer(kernel.EpDS, "ds", func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			win.BeginRequest(m.NeedsReply)
			d.Handle(ctx, m)
			win.EndRequest()
		}
	}, kernel.ServerConfig{Window: win, Store: store})
	k.AddServer(kernel.EpRS, "rs", func(ctx *kernel.Context) {
		for {
			ctx.Receive() // absorb DS events
		}
	}, kernel.ServerConfig{})
	root := k.SpawnUser("client", client)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	return store, win
}

func TestPutGetDeleteProtocol(t *testing.T) {
	harness(t, seep.PolicyEnhanced, func(ctx *kernel.Context) {
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSPut, Str: "a", Str2: "1"}); r.Errno != kernel.OK {
			t.Errorf("put = %v", r.Errno)
		}
		r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSGet, Str: "a"})
		if r.Errno != kernel.OK || r.Str != "1" {
			t.Errorf("get = %v %q", r.Errno, r.Str)
		}
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSKeys}); r.A != 1 {
			t.Errorf("keys = %d, want 1", r.A)
		}
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSDelete, Str: "a"}); r.Errno != kernel.OK {
			t.Errorf("delete = %v", r.Errno)
		}
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSGet, Str: "a"}); r.Errno != kernel.ENOENT {
			t.Errorf("get after delete = %v", r.Errno)
		}
	})
}

func TestRejectsEmptyKeyAndUnknownType(t *testing.T) {
	harness(t, seep.PolicyEnhanced, func(ctx *kernel.Context) {
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSPut, Str: ""}); r.Errno != kernel.EINVAL {
			t.Errorf("empty key = %v, want EINVAL", r.Errno)
		}
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: 998}); r.Errno != kernel.ENOSYS {
			t.Errorf("unknown = %v, want ENOSYS", r.Errno)
		}
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSDelete, Str: "none"}); r.Errno != kernel.ENOENT {
			t.Errorf("delete missing = %v, want ENOENT", r.Errno)
		}
	})
}

// TestEventKeepsEnhancedWindowOpen verifies the Table I mechanism: the
// early event notification closes the pessimistic window but not the
// enhanced one, so the put is logged only under enhanced.
func TestEventKeepsEnhancedWindowOpen(t *testing.T) {
	maxLog := func(policy seep.Policy) int {
		store, _ := harness(t, policy, func(ctx *kernel.Context) {
			ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSPut, Str: "k", Str2: "v"})
		})
		return store.MaxLogBytes()
	}
	enhanced := maxLog(seep.PolicyEnhanced)
	pessimistic := maxLog(seep.PolicyPessimistic)
	if enhanced == 0 {
		t.Fatal("enhanced window logged nothing: it must be open through the event notify")
	}
	if pessimistic != 0 {
		t.Fatalf("pessimistic window logged %d bytes after the event notify", pessimistic)
	}
}

func TestCountersTrackLoad(t *testing.T) {
	store := memlog.NewStore("ds", memlog.Baseline)
	d := New(store)
	if d.puts.Get() != 0 || d.gets.Get() != 0 {
		t.Fatal("fresh DS has nonzero counters")
	}
	// Rebinding over a clone keeps counts.
	d.puts.Set(5)
	clone := store.Clone()
	d2 := New(clone)
	if d2.puts.Get() != 5 {
		t.Fatalf("clone counter = %d, want 5", d2.puts.Get())
	}
}

func TestSubscriptionsPublishAndCleanup(t *testing.T) {
	harness(t, seep.PolicyEnhanced, func(ctx *kernel.Context) {
		// Subscribe this client to "app/" keys.
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSSubscribe, Str: "app/"}); r.Errno != kernel.OK {
			t.Fatalf("subscribe = %v", r.Errno)
		}
		// A matching put delivers an event asynchronously.
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSPut, Str: "app/x", Str2: "1"}); r.Errno != kernel.OK {
			t.Fatalf("put = %v", r.Errno)
		}
		ev, ok := ctx.TryReceive()
		if !ok || ev.Type != proto.DSEvent || ev.Str != "app/x" {
			t.Fatalf("event = %+v ok=%v", ev, ok)
		}
		// A non-matching put delivers nothing.
		ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSPut, Str: "other/x", Str2: "1"})
		if _, ok := ctx.TryReceive(); ok {
			t.Fatal("event for non-matching prefix")
		}
		// A delete on a matching key delivers an event.
		ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSDelete, Str: "app/x"})
		if ev, ok := ctx.TryReceive(); !ok || ev.Str != "app/x" {
			t.Fatalf("delete event = %+v ok=%v", ev, ok)
		}
		// Cleanup for our endpoint removes the subscription.
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSCleanup, A: int64(ctx.Endpoint())}); r.Errno != kernel.OK {
			t.Fatalf("cleanup = %v", r.Errno)
		}
		ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSPut, Str: "app/y", Str2: "1"})
		if _, ok := ctx.TryReceive(); ok {
			t.Fatal("event delivered after cleanup")
		}
		// Unsubscribe with no subscription is ENOENT.
		if r := ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSUnsubscribe}); r.Errno != kernel.ENOENT {
			t.Fatalf("unsubscribe = %v, want ENOENT", r.Errno)
		}
	})
}

func TestSubscriptionSurvivesClone(t *testing.T) {
	// Subscriptions are ordinary recoverable DS state: a recovery clone
	// built over the store carries them.
	store, _ := harness(t, seep.PolicyEnhanced, func(ctx *kernel.Context) {
		ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSSubscribe, Str: "rb/"})
	})
	d := New(store.Clone())
	if d.subs.Len() != 1 {
		t.Fatalf("cloned subs = %d, want 1", d.subs.Len())
	}
}

// stepper registers DS's step as core's loop runs it: Handle inside the
// recovery window (kernel.Stepper).
type stepper struct {
	d   *DS
	win *seep.Window
}

func (s stepper) Step(ctx *kernel.Context, m kernel.Message) {
	s.win.BeginRequest(m.NeedsReply)
	s.d.Handle(ctx, m)
	s.win.EndRequest()
}

func (s stepper) Leaf(m *kernel.Message) (sim.Cycles, bool) { return s.d.Leaf(m) }

// A put's bound grows with the subscribers it is published to. At many of
// them the put is still served as a leaf step, where the kernel holds
// the step to its bound: an overrun would end the run with a
// kernel fault. The quantum never runs out, so only the bound decides.
func TestPutToManySubscribersStaysWithinItsBound(t *testing.T) {
	const subscribers = 40
	cost := kernel.DefaultCostModel()
	cost.Quantum = 1 << 40
	k := kernel.New(cost, 1)
	store := memlog.NewStore("ds", seep.PolicyEnhanced.Instrumentation())
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	d := New(store)
	step := stepper{d, win}
	k.AddServer(kernel.EpDS, "ds", func(ctx *kernel.Context) {
		for {
			step.Step(ctx, ctx.Receive())
		}
	}, kernel.ServerConfig{Window: win, Store: store, Step: step})
	k.AddServer(kernel.EpRS, "rs", func(ctx *kernel.Context) {
		for {
			ctx.Receive() // absorb DS events
		}
	}, kernel.ServerConfig{})
	root := k.SpawnUser("client", func(ctx *kernel.Context) {
		for i := 0; i < subscribers; i++ {
			k.SpawnUser("subscriber", func(ctx *kernel.Context) {
				ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSSubscribe, Str: "k"})
				for {
					ctx.Receive()
				}
			})
		}
		for d.subs.Len() < subscribers {
			ctx.Yield()
		}
		put := kernel.Message{Type: proto.DSPut, Str: "key", Str2: "v"}
		if ticks, _ := d.Leaf(&put); ticks != handleTicks+putTicks+publishTicks*subscribers {
			t.Errorf("the put declares %d ticks, want %d", ticks, handleTicks+putTicks+publishTicks*subscribers)
		}
		served, _ := k.LeafCalls()
		if r := ctx.SendRec(kernel.EpDS, put); r.Errno != kernel.OK {
			t.Errorf("put = %v", r.Errno)
		}
		if now, _ := k.LeafCalls(); now == served {
			t.Error("the put was not served as a leaf step")
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}
