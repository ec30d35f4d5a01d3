package kernel

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/sim"
)

const testLimit sim.Cycles = 50_000_000

func newTestKernel() *Kernel {
	return New(DefaultCostModel(), 1)
}

// echoServer replies to every request with A+1.
func echoServer(ctx *Context) {
	for {
		m := ctx.Receive()
		ctx.Tick(10)
		ctx.Reply(m.From, Message{Type: m.Type, A: m.A + 1})
	}
}

func TestSendRecRoundTrip(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{})

	var got int64
	root := k.SpawnUser("client", func(ctx *Context) {
		r := ctx.SendRec(EpDS, Message{Type: 100, A: 41})
		if r.Errno != OK {
			t.Errorf("SendRec errno = %v", r.Errno)
		}
		got = r.A
	})
	k.SetRootProcess(root.Endpoint())

	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s), want completed", res.Outcome, res.Reason)
	}
	if got != 42 {
		t.Fatalf("reply A = %d, want 42", got)
	}
}

func TestSendRecToDeadEndpoint(t *testing.T) {
	k := newTestKernel()
	var errno Errno
	root := k.SpawnUser("client", func(ctx *Context) {
		r := ctx.SendRec(EpVFS, Message{Type: 100})
		errno = r.Errno
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v, want completed", res.Outcome)
	}
	if errno != EDEADSRCDST {
		t.Fatalf("errno = %v, want EDEADSRCDST", errno)
	}
}

func TestMessagesDeliveredInOrder(t *testing.T) {
	k := newTestKernel()
	var order []int64
	k.AddServer(EpDS, "sink", func(ctx *Context) {
		for {
			m := ctx.Receive()
			order = append(order, m.A)
			if m.NeedsReply {
				ctx.Reply(m.From, Message{})
			}
		}
	}, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		for i := int64(1); i <= 4; i++ {
			ctx.Send(EpDS, Message{Type: 100, A: i})
		}
		// Final synchronous call flushes the queue before we exit.
		ctx.SendRec(EpDS, Message{Type: 100, A: 5})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	want := []int64{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("received %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("received %v, want %v", order, want)
		}
	}
}

func TestNestedSendRec(t *testing.T) {
	// client -> PM -> VM: nested synchronous calls must resolve.
	k := newTestKernel()
	k.AddServer(EpVM, "vm", echoServer, ServerConfig{})
	k.AddServer(EpPM, "pm", func(ctx *Context) {
		for {
			m := ctx.Receive()
			inner := ctx.SendRec(EpVM, Message{Type: 1, A: m.A * 10})
			ctx.Reply(m.From, Message{A: inner.A})
		}
	}, ServerConfig{})
	var got int64
	root := k.SpawnUser("client", func(ctx *Context) {
		got = ctx.SendRec(EpPM, Message{Type: 1, A: 4}).A
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if got != 41 {
		t.Fatalf("nested reply = %d, want 41", got)
	}
}

func TestServerCrashWithoutHandlerAborts(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpPM, "pm", func(ctx *Context) {
		ctx.Receive()
		panic("null pointer dereference")
	}, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.SendRec(EpPM, Message{Type: 1})
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCrashed {
		t.Fatalf("outcome = %v, want crashed", res.Outcome)
	}
	if !strings.Contains(res.Reason, "null pointer dereference") {
		t.Fatalf("reason %q does not mention the panic", res.Reason)
	}
}

func TestCrashHandlerReceivesInfo(t *testing.T) {
	k := newTestKernel()
	var info CrashInfo
	k.SetCrashHandler(func(ci CrashInfo) error {
		info = ci
		// Reconcile: fail the pending caller so the run completes.
		k.FailPendingCallers(ci.Victim, ECRASH)
		return nil
	})
	k.AddServer(EpPM, "pm", func(ctx *Context) {
		ctx.Receive()
		panic("boom")
	}, ServerConfig{})
	var errno Errno
	root := k.SpawnUser("client", func(ctx *Context) {
		errno = ctx.SendRec(EpPM, Message{Type: 1}).Errno
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s), want completed", res.Outcome, res.Reason)
	}
	if info.Victim != EpPM || info.Name != "pm" {
		t.Fatalf("crash info = %+v", info)
	}
	if info.CurSender != root.Endpoint() || !info.CurNeedsReply {
		t.Fatalf("in-flight bookkeeping wrong: %+v", info)
	}
	if errno != ECRASH {
		t.Fatalf("caller errno = %v, want ECRASH", errno)
	}
}

func TestReplaceProcessPreservesInbox(t *testing.T) {
	k := newTestKernel()
	var served []int64
	serve := func(ctx *Context) {
		for {
			m := ctx.Receive()
			if m.A == 1 && len(served) == 0 {
				served = append(served, m.A)
				panic("crash on first request")
			}
			served = append(served, m.A)
			if m.NeedsReply {
				ctx.Reply(m.From, Message{})
			}
		}
	}
	k.SetCrashHandler(func(ci CrashInfo) error {
		if _, err := k.ReplaceProcess(ci.Victim, "pm", serve, ServerConfig{}); err != nil {
			return err
		}
		// Error-virtualize only the in-flight request; queued requests
		// stay queued and are served by the clone.
		if ci.CurNeedsReply {
			return k.DeliverReply(ci.Victim, ci.CurSender, Message{Errno: ECRASH})
		}
		return nil
	})
	k.AddServer(EpPM, "pm", serve, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Send(EpPM, Message{A: 1}) // triggers crash
		ctx.Send(EpPM, Message{A: 2}) // queued across recovery
		ctx.SendRec(EpPM, Message{A: 3})
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if len(served) != 3 || served[1] != 2 || served[2] != 3 {
		t.Fatalf("served = %v, want [1 2 3] across recovery", served)
	}
}

func TestTerminateProcess(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpPM, "pm", func(ctx *Context) {
		m := ctx.Receive()
		victim := Endpoint(m.A)
		if errno := ctx.Kernel().TerminateProcess(victim); errno != OK {
			t.Errorf("TerminateProcess = %v", errno)
		}
		ctx.Reply(m.From, Message{})
	}, ServerConfig{})

	child := k.SpawnUser("child", func(ctx *Context) {
		// Block forever; PM will terminate us.
		ctx.Receive()
		t.Error("terminated child kept running")
	})
	root := k.SpawnUser("parent", func(ctx *Context) {
		ctx.SendRec(EpPM, Message{A: int64(child.Endpoint())})
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if child.Alive() {
		t.Fatal("child still alive after TerminateProcess")
	}
}

func TestControlledShutdown(t *testing.T) {
	k := newTestKernel()
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Kernel().ControlledShutdown("window closed")
		// Keep running; the kernel loop stops after this dispatch.
		ctx.Yield()
		t.Error("process ran after shutdown")
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeShutdown || res.Reason != "window closed" {
		t.Fatalf("result = %+v", res)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := newTestKernel()
	root := k.SpawnUser("waiter", func(ctx *Context) {
		ctx.Receive() // nobody will ever send
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeDeadlock {
		t.Fatalf("outcome = %v, want deadlock", res.Outcome)
	}
}

func TestCycleLimitHang(t *testing.T) {
	k := newTestKernel()
	root := k.SpawnUser("spinner", func(ctx *Context) {
		ctx.Hang()
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(1_000_000)
	if res.Outcome != OutcomeHang {
		t.Fatalf("outcome = %v, want hang", res.Outcome)
	}
}

func TestAlarmDelivery(t *testing.T) {
	k := newTestKernel()
	var fired sim.Cycles
	root := k.SpawnUser("sleeper", func(ctx *Context) {
		ctx.SetAlarm(10_000)
		m := ctx.Receive()
		if m.Type != MsgAlarm || m.From != EpKernel {
			t.Errorf("got %+v, want alarm from kernel", m)
		}
		fired = ctx.Now()
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if fired < 10_000 {
		t.Fatalf("alarm fired at %d, want >= 10000", fired)
	}
}

func TestQuantumPreemption(t *testing.T) {
	// Two compute-bound processes must interleave via Tick-quantum
	// preemption: proc B finishes long before A burns all its cycles.
	k := newTestKernel()
	var bDone, aDone sim.Cycles
	k.SpawnUser("a", func(ctx *Context) {
		for i := 0; i < 100; i++ {
			ctx.Tick(k.cost.Quantum)
		}
		aDone = ctx.Now()
	})
	rootB := k.SpawnUser("b", func(ctx *Context) {
		for i := 0; i < 3; i++ {
			ctx.Tick(k.cost.Quantum)
		}
		bDone = ctx.Now()
	})
	_ = rootB
	// Run until deadlock (both done, nothing runnable).
	res := k.Run(testLimit)
	if res.Outcome != OutcomeDeadlock {
		t.Fatalf("outcome = %v, want deadlock after both exit", res.Outcome)
	}
	if bDone == 0 || aDone == 0 {
		t.Fatal("processes did not finish")
	}
	if bDone >= aDone {
		t.Fatalf("b finished at %d after a at %d: no interleaving", bDone, aDone)
	}
}

func TestSeepCallObservesWindow(t *testing.T) {
	k := newTestKernel()
	store := memlog.NewStore("pm", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	k.AddServer(EpVM, "vm", echoServer, ServerConfig{})
	k.AddServer(EpPM, "pm", func(ctx *Context) {
		for {
			m := ctx.Receive()
			win.BeginRequest(m.NeedsReply)
			ctx.Call(seep.Passage{Name: "pm->vm.query", Class: seep.ClassReadOnly}, EpVM, Message{A: 1})
			open1 := win.Open()
			ctx.Call(seep.Passage{Name: "pm->vm.mutate", Class: seep.ClassMutating}, EpVM, Message{A: 2})
			open2 := win.Open()
			ctx.Reply(m.From, Message{A: boolTo64(open1)*10 + boolTo64(open2)})
			win.EndRequest()
		}
	}, ServerConfig{Window: win, Store: store})
	var got int64
	root := k.SpawnUser("client", func(ctx *Context) {
		got = ctx.SendRec(EpPM, Message{Type: 1}).A
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if got != 10 {
		t.Fatalf("window states = %d, want 10 (open after read-only, closed after mutating)", got)
	}
}

func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestPointHookAndCoverage(t *testing.T) {
	k := newTestKernel()
	store := memlog.NewStore("pm", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	var sites []string
	k.SetPointHook(func(_ Endpoint, name, site string) {
		sites = append(sites, name+":"+site)
	})
	k.AddServer(EpPM, "pm", func(ctx *Context) {
		for {
			m := ctx.Receive()
			win.BeginRequest(m.NeedsReply)
			ctx.Point("handle.entry")
			ctx.Reply(m.From, Message{})
			ctx.Point("handle.exit")
			win.EndRequest()
		}
	}, ServerConfig{Window: win, Store: store})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.SendRec(EpPM, Message{Type: 1})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if len(sites) != 2 || sites[0] != "pm:handle.entry" || sites[1] != "pm:handle.exit" {
		t.Fatalf("sites = %v", sites)
	}
	st := win.Stats()
	if st.BlocksIn != 1 || st.BlocksOut != 1 {
		t.Fatalf("coverage blocks in/out = %d/%d, want 1/1 (reply closes window)", st.BlocksIn, st.BlocksOut)
	}
}

// A hook given sites sees exactly their executions, one given none sees
// every site, and nil detaches; a hook may re-arm itself from inside its
// call.
func TestPointHookArmedSites(t *testing.T) {
	run := func(arm func(k *Kernel, h func(Endpoint, string, string))) []string {
		k := newTestKernel()
		var seen []string
		h := func(_ Endpoint, name, site string) { seen = append(seen, name+":"+site) }
		arm(k, h)
		root := k.SpawnUser("client", func(ctx *Context) {
			for _, site := range []string{"a", "b", "c", "b", "a"} {
				ctx.Point(site)
			}
		})
		k.SetRootProcess(root.Endpoint())
		if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
			t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
		}
		return seen
	}
	for _, tc := range []struct {
		name string
		arm  func(k *Kernel, h func(Endpoint, string, string))
		want []string
	}{
		{"every site", func(k *Kernel, h func(Endpoint, string, string)) { k.SetPointHook(h) },
			[]string{"client:a", "client:b", "client:c", "client:b", "client:a"}},
		{"armed at b", func(k *Kernel, h func(Endpoint, string, string)) { k.SetPointHook(h, "b") },
			[]string{"client:b", "client:b"}},
		{"armed at c and a", func(k *Kernel, h func(Endpoint, string, string)) { k.SetPointHook(h, "c", "a") },
			[]string{"client:a", "client:c", "client:a"}},
		{"armed from a slice its caller reuses", func(k *Kernel, h func(Endpoint, string, string)) {
			sites := []string{"b"}
			k.SetPointHook(h, sites...)
			sites[0] = "a"
		}, []string{"client:b", "client:b"}},
		{"armed where nothing runs", func(k *Kernel, h func(Endpoint, string, string)) { k.SetPointHook(h, "d") },
			nil},
		{"detached", func(k *Kernel, h func(Endpoint, string, string)) { k.SetPointHook(h, "a"); k.SetPointHook(nil, "a") },
			nil},
		{"re-armed from inside", func(k *Kernel, h func(Endpoint, string, string)) {
			var self func(Endpoint, string, string)
			self = func(ep Endpoint, name, site string) {
				h(ep, name, site)
				if site == "b" {
					k.SetPointHook(nil)
				} else {
					k.SetPointHook(self, "b")
				}
			}
			k.SetPointHook(self)
		}, []string{"client:a", "client:b"}},
	} {
		if got := run(tc.arm); !slices.Equal(got, tc.want) {
			t.Errorf("%s: hook saw %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOverrideNextReplyErrno(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpDS, "ds", echoServer, ServerConfig{})
	var errnos []Errno
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Kernel().OverrideNextReplyErrno(EpDS, EIO)
		errnos = append(errnos, ctx.SendRec(EpDS, Message{A: 1}).Errno)
		errnos = append(errnos, ctx.SendRec(EpDS, Message{A: 2}).Errno)
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if errnos[0] != EIO || errnos[1] != OK {
		t.Fatalf("errnos = %v, want [EIO OK]", errnos)
	}
}

func TestMonolithicModeIsCheaper(t *testing.T) {
	run := func(monolithic bool) sim.Cycles {
		cost := DefaultCostModel()
		cost.Monolithic = monolithic
		k := New(cost, 1)
		k.AddServer(EpDS, "echo", echoServer, ServerConfig{})
		root := k.SpawnUser("client", func(ctx *Context) {
			for i := 0; i < 100; i++ {
				ctx.SendRec(EpDS, Message{A: int64(i)})
			}
		})
		k.SetRootProcess(root.Endpoint())
		res := k.Run(testLimit)
		if res.Outcome != OutcomeCompleted {
			t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
		}
		return res.Cycles
	}
	micro := run(false)
	mono := run(true)
	if mono*2 >= micro {
		t.Fatalf("monolithic %d cycles not ≪ microkernel %d cycles", mono, micro)
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	run := func() (sim.Cycles, uint64) {
		k := New(DefaultCostModel(), 7)
		k.AddServer(EpDS, "echo", echoServer, ServerConfig{})
		k.AddServer(EpVM, "vm", echoServer, ServerConfig{})
		root := k.SpawnUser("client", func(ctx *Context) {
			r := ctx.Kernel().rng
			for i := 0; i < 200; i++ {
				dst := EpDS
				if r.Intn(2) == 0 {
					dst = EpVM
				}
				ctx.SendRec(dst, Message{A: int64(i)})
				ctx.Tick(sim.Cycles(r.Intn(1000)))
			}
		})
		k.SetRootProcess(root.Endpoint())
		res := k.Run(testLimit)
		if res.Outcome != OutcomeCompleted {
			t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
		}
		return res.Cycles, k.Counters().Get("kernel.dispatches")
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("non-deterministic: run1=(%d,%d) run2=(%d,%d)", c1, d1, c2, d2)
	}
}

func TestUserProcessCrashIsTrappedToo(t *testing.T) {
	k := newTestKernel()
	var info CrashInfo
	k.SetCrashHandler(func(ci CrashInfo) error {
		info = ci
		return nil
	})
	k.SpawnUser("buggy", func(ctx *Context) {
		ctx.Tick(10)
		panic("segfault")
	})
	root := k.SpawnUser("main", func(ctx *Context) {
		for i := 0; i < 10; i++ {
			ctx.Tick(100)
			ctx.Yield()
		}
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if info.Name != "buggy" {
		t.Fatalf("crash handler saw %+v, want the buggy user process", info)
	}
}
