package kernel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNotifyDeliversAsync(t *testing.T) {
	k := newTestKernel()
	var got Message
	k.AddServer(EpDS, "sink", func(ctx *Context) {
		got = ctx.Receive()
	}, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		if errno := ctx.Send(EpDS, Message{Type: 55}); errno != OK {
			t.Errorf("Send = %v", errno)
		}
		ctx.Yield() // let the sink run
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got.Type != 55 || got.NeedsReply {
		t.Fatalf("notification = %+v", got)
	}
}

func TestTryReceive(t *testing.T) {
	k := newTestKernel()
	var empty, full bool
	root := k.SpawnUser("client", func(ctx *Context) {
		if _, ok := ctx.TryReceive(); !ok {
			empty = true
		}
		ctx.Kernel().PostMessage(EpKernel, ctx.Endpoint(), Message{Type: 9})
		if m, ok := ctx.TryReceive(); ok && m.Type == 9 {
			full = true
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !empty || !full {
		t.Fatalf("TryReceive empty=%v full=%v", empty, full)
	}
}

func TestPostMessageToDeadTarget(t *testing.T) {
	k := newTestKernel()
	root := k.SpawnUser("client", func(ctx *Context) {
		if err := ctx.Kernel().PostMessage(EpKernel, EpVFS, Message{}); err == nil {
			t.Error("PostMessage to missing endpoint succeeded")
		}
	})
	k.SetRootProcess(root.Endpoint())
	k.Run(testLimit)
}

func TestAlarmForDeadProcessSkipped(t *testing.T) {
	k := newTestKernel()
	child := k.SpawnUser("child", func(ctx *Context) {
		ctx.SetAlarm(1_000_000) // dies before this fires
	})
	_ = child
	root := k.SpawnUser("main", func(ctx *Context) {
		ctx.SetAlarm(2_000_000)
		m := ctx.Receive()
		if m.Type != MsgAlarm {
			t.Errorf("got %+v", m)
		}
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	// The dead child's alarm must have been discarded, not delivered.
	if got := k.Counters().Get("kernel.alarms_fired"); got != 1 {
		t.Fatalf("alarms_fired = %d, want 1", got)
	}
}

func TestReplaceProcessMissingEndpoint(t *testing.T) {
	k := newTestKernel()
	if _, err := k.ReplaceProcess(EpVM, "x", func(*Context) {}, ServerConfig{}); err == nil {
		t.Fatal("ReplaceProcess on empty endpoint succeeded")
	}
}

func TestFailPendingCallersCount(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpDS, "blackhole", func(ctx *Context) {
		ctx.Receive() // take one message, never reply
		ctx.Receive() // park
	}, ServerConfig{})
	for i := 0; i < 3; i++ {
		k.SpawnUser("caller", func(ctx *Context) {
			r := ctx.SendRec(EpDS, Message{Type: 7})
			if r.Errno != EIO {
				t.Errorf("failed caller errno = %v, want EIO", r.Errno)
			}
		})
	}
	root := k.SpawnUser("controller", func(ctx *Context) {
		ctx.Tick(100_000) // let the callers block
		if n := ctx.Kernel().FailPendingCallers(EpDS, EIO); n != 3 {
			t.Errorf("FailPendingCallers = %d, want 3", n)
		}
		ctx.Tick(100_000) // let them drain
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// An installed tracer receives every event kind, with the text the
// format and arguments have always produced: the sites test k.tracer
// before building an event, which must not change what one says.
func TestTracerReceivesEvents(t *testing.T) {
	k := newTestKernel()
	var events []string
	k.SetTracer(func(f string, args ...any) {
		events = append(events, fmt.Sprintf(f, args...))
	})
	k.SetCrashHandler(func(info CrashInfo) error {
		return k.QuarantineProcess(info.Victim, "gave up")
	})
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.SendRec(EpDS, Message{Type: 1})
		// A reply to a process that is not waiting for one arrives as a
		// message.
		ctx.Kernel().DeliverReply(EpDS, ctx.Endpoint(), Message{Errno: EIO})
		ctx.Kernel().FailStopProcess(EpDS, "declared hung")
		ctx.Yield() // let the kernel loop handle the queued crash
	})
	k.SetRootProcess(root.Endpoint())
	k.Run(testLimit)
	want := []string{
		"recv: echo(6) <- 100 type=1 t=800",
		"reply: 6 -> client(100) errno=OK",
		"reply-async: 6 -> client(100) errno=EIO state=1",
		"failstop: echo(6): declared hung",
		"crash: echo(6) sender=100 replyable=true panic=declared hung deferred=false duringRecovery=false",
		"quarantine: echo(6): gave up",
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("tracer events:\n got %q\nwant %q", events, want)
	}
}

func TestDeadlockReasonNamesProcesses(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpDS, "stuckserver", func(ctx *Context) {
		ctx.Receive()
	}, ServerConfig{})
	root := k.SpawnUser("stuckclient", func(ctx *Context) {
		ctx.Receive()
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeDeadlock {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !strings.Contains(res.Reason, "stuckclient") || !strings.Contains(res.Reason, "receiving") {
		t.Fatalf("reason %q lacks diagnostics", res.Reason)
	}
}

func TestKillRootViaTerminateCompletesRun(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpPM, "killer", func(ctx *Context) {
		m := ctx.Receive()
		ctx.Kernel().TerminateProcess(m.From)
	}, ServerConfig{})
	root := k.SpawnUser("victim", func(ctx *Context) {
		ctx.SendRec(EpPM, Message{Type: 1}) // never returns
		t.Error("survived termination")
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

func TestStringerCoverage(t *testing.T) {
	errnos := []Errno{OK, ECRASH, EDEADSRCDST, ESHUTDOWN, ENOENT, EEXIST, EBADF,
		EINVAL, ENOMEM, ENOSPC, ECHILD, ESRCH, EAGAIN, EPIPE, EISDIR, ENOTDIR,
		EIO, EPERM, ENOSYS}
	seen := make(map[string]bool)
	for _, e := range errnos {
		s := e.String()
		if s == "" || strings.HasPrefix(s, "Errno(") {
			t.Errorf("errno %d has no name", e)
		}
		if seen[s] {
			t.Errorf("duplicate errno name %q", s)
		}
		seen[s] = true
	}
	if Errno(9999).String() != "Errno(9999)" {
		t.Error("unknown errno formatting broken")
	}
	outcomes := []RunOutcome{OutcomeCompleted, OutcomeShutdown, OutcomeCrashed, OutcomeDeadlock, OutcomeHang}
	for _, o := range outcomes {
		if strings.HasPrefix(o.String(), "RunOutcome(") {
			t.Errorf("outcome %d has no name", o)
		}
	}
}

func TestMonolithicIPCCost(t *testing.T) {
	c := DefaultCostModel()
	micro := c.ipcCost()
	c.Monolithic = true
	mono := c.ipcCost()
	if mono >= micro {
		t.Fatalf("monolithic hop %d not below microkernel hop %d", mono, micro)
	}
}

func TestSecondCrashDuringRecoveryAborts(t *testing.T) {
	// A crash handler that itself provokes a panic is an uncontrolled
	// crash (violating the single-fault assumption).
	k := newTestKernel()
	k.SetCrashHandler(func(ci CrashInfo) error {
		panic("fault inside recovery")
	})
	k.AddServer(EpDS, "victim", func(ctx *Context) {
		ctx.Receive()
		panic("first fault")
	}, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.SendRec(EpDS, Message{Type: 1})
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCrashed || !strings.Contains(res.Reason, "panic during recovery") {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

func TestQuantumConfigRespected(t *testing.T) {
	cost := DefaultCostModel()
	cost.Quantum = 1000
	k := New(cost, 1)
	yields := k.Counters()
	root := k.SpawnUser("burner", func(ctx *Context) {
		for i := 0; i < 10; i++ {
			ctx.Tick(600) // crosses the quantum every other tick
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Each quantum expiry is a yield and thus a re-dispatch.
	if got := yields.Get("kernel.dispatches"); got < 5 {
		t.Fatalf("dispatches = %d, want >= 5 (quantum preemption)", got)
	}
}

func TestServerWorkScaleAppliesOnlyToServers(t *testing.T) {
	cost := DefaultCostModel()
	cost.ServerWorkScale = 4
	k := New(cost, 1)
	var serverElapsed, userElapsed sim.Cycles
	k.AddServer(EpDS, "srv", func(ctx *Context) {
		m := ctx.Receive()
		t0 := ctx.Now()
		ctx.Tick(100)
		serverElapsed = ctx.Now() - t0
		ctx.Reply(m.From, Message{})
	}, ServerConfig{})
	root := k.SpawnUser("usr", func(ctx *Context) {
		t0 := ctx.Now()
		ctx.Tick(100)
		userElapsed = ctx.Now() - t0
		ctx.SendRec(EpDS, Message{Type: 1})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if userElapsed != 100 {
		t.Fatalf("user tick scaled: %d", userElapsed)
	}
	if serverElapsed != 400 {
		t.Fatalf("server tick = %d, want 400 (scale 4)", serverElapsed)
	}
}
