//go:build !race

package kernel

import (
	"testing"

	"repro/internal/memlog"
	"repro/internal/seep"
)

// Allocation budget of the message path (the race detector allocates on
// its own, hence the build tag). With no tracer installed a
// SendRec/Receive/Reply round trip — two context switches, two message
// transfers, the reply passage through an open recovery window — must
// not touch the host allocator: every simulated request crosses it, so
// one allocation here is tens of thousands per run.
func TestRoundTripDoesNotAllocate(t *testing.T) {
	k := newTestKernel()
	store := memlog.NewStore("echo", memlog.Optimized)
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{
		Window: seep.NewWindow(seep.PolicyEnhanced, store),
		Store:  store,
	})
	allocs := -1.0
	root := k.SpawnUser("client", func(ctx *Context) {
		allocs = testing.AllocsPerRun(200, func() {
			ctx.SendRec(EpDS, Message{Type: 1, A: 1})
		})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if allocs != 0 {
		t.Fatalf("round trip allocates %v times, want 0", allocs)
	}
}

// A leaf call — the same round trip served on the caller's coroutine by
// the server's registered step — allocates nothing either: no closure
// per call, no boxed message. Nor does an asynchronous request whose step
// is served at the sender's Receive yield.
func TestLeafCallDoesNotAllocate(t *testing.T) {
	k := newTestKernel()
	store := memlog.NewStore("echo", memlog.Optimized)
	echo := &testStep{serve: echoStep, ticks: 10}
	parkedStepServer(k, EpDS, "echo", echo, ServerConfig{
		Window: seep.NewWindow(seep.PolicyEnhanced, store),
		Store:  store,
		Step:   echo,
	})
	allocs := [2]float64{-1, -1}
	root := k.SpawnUser("client", func(ctx *Context) {
		allocs[0] = testing.AllocsPerRun(200, func() {
			ctx.SendRec(EpDS, Message{Type: 1, A: 1})
		})
		allocs[1] = testing.AllocsPerRun(200, func() {
			ctx.Send(EpDS, Message{Type: 1, A: 1})
			ctx.Receive()
		})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if leaf, _ := k.LeafCalls(); leaf < 400 {
		t.Fatalf("%d leaf calls, want every request after the first", leaf)
	}
	if allocs != [2]float64{} {
		t.Fatalf("a leaf call allocates %v times at a SendRec and %v at a Receive, want 0", allocs[0], allocs[1])
	}
}

// The reliable transport adds nothing to that budget: once the first
// exchange has made the pair's record, a round trip writes its sequence
// cursor, anti-replay window, in-service sequence and cached reply in
// place.
func TestReliableRoundTripDoesNotAllocate(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	store := memlog.NewStore("echo", memlog.Optimized)
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{
		Window: seep.NewWindow(seep.PolicyEnhanced, store),
		Store:  store,
	})
	allocs := -1.0
	root := k.SpawnUser("client", func(ctx *Context) {
		allocs = testing.AllocsPerRun(200, func() {
			ctx.SendRec(EpDS, Message{Type: 1, A: 1})
		})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if st, _ := k.IPCStats(); st.Delivered < 2*200 || st.Retransmits != 0 {
		t.Fatalf("stats = %+v, want every request and reply delivered once", st)
	}
	if allocs != 0 {
		t.Fatalf("reliable round trip allocates %v times, want 0", allocs)
	}
}

// A heartbeat is an alarm set and delivered: the heap takes and returns
// alarms by value, so neither boxes one.
func TestAlarmDoesNotAllocate(t *testing.T) {
	k := newTestKernel()
	allocs := -1.0
	root := k.SpawnUser("sleeper", func(ctx *Context) {
		allocs = testing.AllocsPerRun(200, func() {
			ctx.SetAlarm(1000)
			ctx.Receive()
		})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if allocs != 0 {
		t.Fatalf("alarm set and delivered allocates %v times, want 0", allocs)
	}
}

// Every message of this round trip is held by a delay fault and released
// by fireDueIPC, which splits the due entries into a scratch slice the
// plane keeps between calls.
func TestDueIPCReleaseDoesNotAllocate(t *testing.T) {
	k := newTestKernel()
	// The deadline outlasts a delayed request and its delayed reply, so
	// nothing is retransmitted.
	k.SetIPCFaultPlane(IPCFaultConfig{DelayBP: 10000}, IPCReliability{TimeoutCycles: 4 * DefaultIPCDelayCycles}, 1)
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{})
	allocs := -1.0
	root := k.SpawnUser("client", func(ctx *Context) {
		allocs = testing.AllocsPerRun(200, func() {
			ctx.SendRec(EpDS, Message{Type: 1, A: 1})
		})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if st, _ := k.IPCStats(); st.Delayed < 2*200 {
		t.Fatalf("%d deliveries delayed, want every request and reply", st.Delayed)
	}
	if allocs != 0 {
		t.Fatalf("delayed round trip allocates %v times, want 0", allocs)
	}
}

// A point costs a fault-free run its accounting and, with a hook armed
// at other sites, a scan of the armed sites: neither allocates, and
// neither does calling a hook armed at the executing site.
func TestGatedPointDoesNotAllocate(t *testing.T) {
	calls := 0
	hook := func(Endpoint, string, string) { calls++ }
	for _, tc := range []struct {
		name  string
		sites []string // nil: no hook
		calls int
	}{
		{"no hook", nil, 0},
		{"armed elsewhere", []string{"vfs.read.entry", "pm.fork.entry"}, 0},
		{"armed here", []string{"vfs.read.entry", "ds.put.entry"}, 201},
	} {
		k := newTestKernel()
		if tc.sites != nil {
			k.SetPointHook(hook, tc.sites...)
		}
		calls = 0
		allocs := -1.0
		root := k.SpawnUser("client", func(ctx *Context) {
			allocs = testing.AllocsPerRun(200, func() { ctx.Point("ds.put.entry") })
		})
		k.SetRootProcess(root.Endpoint())
		if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
			t.Fatalf("%s: outcome = %v (%s)", tc.name, res.Outcome, res.Reason)
		}
		if calls != tc.calls {
			t.Errorf("%s: hook called %d times, want %d", tc.name, calls, tc.calls)
		}
		if allocs != 0 {
			t.Errorf("%s: point allocates %v times, want 0", tc.name, allocs)
		}
	}
}
