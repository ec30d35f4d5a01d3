package cothread

import (
	"strings"
	"testing"

	"repro/internal/kernel"
)

// TestTeardownWithWorkerParkedOnBaton (named for the channel kernel it
// was written against, where it reproduced a teardown deadlock): a
// cooperative worker thread exceeds its scheduling quantum inside its job
// and yields to the kernel, so at end-of-run the process is suspended on
// the WORKER's behalf — the main loop is inside Start, parked in
// RunNested, and the worker is parked inside the relay on its own
// coroutine. The kill unwinds the main loop from RunNested, then the
// pool's kill hook unwinds the worker out of its kernel call.
func TestTeardownWithWorkerParkedOnBaton(t *testing.T) {
	cost := kernel.DefaultCostModel()
	cost.Quantum = 500 // tiny: the worker job always crosses it
	k := kernel.New(cost, 1)

	workerStarted := false // one flow of control: no synchronization needed
	k.AddServer(kernel.EpVFS, "threaded", func(ctx *kernel.Context) {
		pool := NewPool(ctx, 2)
		for {
			ctx.Receive()
			pool.Thread(0).Start(func(th *Thread) {
				workerStarted = true
				// Crosses the quantum repeatedly: the worker yields to
				// the kernel from inside the job.
				for i := 0; i < 100; i++ {
					ctx.Tick(400)
				}
			})
		}
	}, kernel.ServerConfig{})

	root := k.SpawnUser("root", func(ctx *kernel.Context) {
		ctx.Send(kernel.EpVFS, kernel.Message{Type: 300})
		// Wait until the worker is running, then exit promptly: the
		// run ends while the worker is quantum-parked in the relay.
		for !workerStarted {
			ctx.Yield()
		}
		ctx.Tick(100)
	})
	k.SetRootProcess(root.Endpoint())

	// Under the channel kernel a wrong kill order deadlocked here in
	// killAll and the Go runtime aborted the whole test process.
	res := k.Run(100_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// TestTeardownWithWorkerBlockedOnChannel covers the complementary
// state: the worker is parked in Block (awaiting a completion) and the
// server main loop is suspended in Receive on the process's own
// coroutine. The kill unwinds the main loop and the pool reaps the worker.
func TestTeardownWithWorkerBlockedOnChannel(t *testing.T) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	k.AddServer(kernel.EpVFS, "threaded", func(ctx *kernel.Context) {
		pool := NewPool(ctx, 1)
		for {
			ctx.Receive()
			pool.Thread(0).Start(func(th *Thread) {
				th.Block() // never resumed
			})
		}
	}, kernel.ServerConfig{})
	root := k.SpawnUser("root", func(ctx *kernel.Context) {
		ctx.Send(kernel.EpVFS, kernel.Message{Type: 300})
		ctx.Yield() // let the server park its worker
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(100_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// TestReplaceWithWorkerParkedOnBaton covers a crash-time replacement
// instead of end-of-run teardown: the component crashes while a worker is
// parked, so there is no body left to unwind and the replacement reaps
// only the worker.
func TestReplaceWithWorkerParkedOnBaton(t *testing.T) {
	cost := kernel.DefaultCostModel()
	cost.Quantum = 500
	k := kernel.New(cost, 1)

	k.SetCrashHandler(func(ci kernel.CrashInfo) error {
		_, err := k.ReplaceProcess(ci.Victim, "threaded", func(ctx *kernel.Context) {
			for {
				m := ctx.Receive()
				if m.NeedsReply {
					ctx.ReplyErr(m.From, kernel.OK)
				}
			}
		}, kernel.ServerConfig{})
		if err != nil {
			return err
		}
		if ci.CurNeedsReply {
			return k.DeliverReply(ci.Victim, ci.CurSender, kernel.Message{Errno: kernel.ECRASH})
		}
		return nil
	})

	k.AddServer(kernel.EpVFS, "threaded", func(ctx *kernel.Context) {
		pool := NewPool(ctx, 2)
		// First request: park a worker awaiting a completion.
		ctx.Receive()
		pool.Thread(0).Start(func(th *Thread) {
			th.Block() // parked awaiting resume; never comes
		})
		// Second request crashes the server while thread 0 is parked.
		m := ctx.Receive()
		_ = m
		panic("component fault with a parked worker")
	}, kernel.ServerConfig{})

	root := k.SpawnUser("root", func(ctx *kernel.Context) {
		ctx.Send(kernel.EpVFS, kernel.Message{Type: 300})
		r := ctx.SendRec(kernel.EpVFS, kernel.Message{Type: 301})
		if r.Errno != kernel.ECRASH {
			t.Errorf("crashing request = %v, want ECRASH", r.Errno)
		}
		// The replacement serves requests.
		if r := ctx.SendRec(kernel.EpVFS, kernel.Message{Type: 302}); r.Errno != kernel.OK {
			t.Errorf("replacement request = %v", r.Errno)
		}
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(100_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// A body killed while its WORKER is inside a kernel call
// (kernel.TestKillUnwindsDeferredBlockingCalls covers the body's own
// calls): the worker is parked in the relay under SendRec with blocking
// calls deferred, the main loop is inside Start with its own. Both unwind,
// every deferred call re-raises the kill instead of suspending, and none
// of them touches kernel state.
func TestKillUnwindsWorkerInsideKernelCall(t *testing.T) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	k.AddServer(kernel.EpDriver, "silent", func(ctx *kernel.Context) {
		for {
			ctx.Receive() // never replies
		}
	}, kernel.ServerConfig{})
	jobUnwound, bodyUnwound := false, false
	k.AddServer(kernel.EpVFS, "threaded", func(ctx *kernel.Context) {
		pool := NewPool(ctx, 1)
		defer func() { bodyUnwound = true }()
		defer ctx.Receive()
		defer ctx.SendRec(kernel.EpDriver, kernel.Message{Type: 3})
		ctx.Receive()
		pool.Thread(0).Start(func(th *Thread) {
			defer func() { jobUnwound = true }()
			defer th.Block()
			defer ctx.Barrier()
			defer ctx.Yield()
			defer ctx.Receive()
			defer ctx.SendRec(kernel.EpDriver, kernel.Message{Type: 2})
			ctx.SendRec(kernel.EpDriver, kernel.Message{Type: 1})
			t.Error("the driver never replies: the job cannot get here")
		})
		t.Error("Start returned although its worker never blocked or finished")
	}, kernel.ServerConfig{})
	root := k.SpawnUser("root", func(ctx *kernel.Context) {
		ctx.Send(kernel.EpVFS, kernel.Message{Type: 300})
		ctx.Yield() // the worker sends and parks
		ctx.Yield()
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !jobUnwound || !bodyUnwound {
		t.Errorf("unwound: job %v, body %v; want both", jobUnwound, bodyUnwound)
	}
	// root's Send and its receipt, the worker's request and its receipt.
	if hops := k.Counters().Get("kernel.msg_hops"); hops != 4 {
		t.Errorf("kernel.msg_hops = %d, want 4 (no deferred call crossed the kernel)", hops)
	}
}

// The kernel resumes processes, not workers, so a pool works only under
// the process it was made in. Driving it from another process's body —
// whose kernel calls would then suspend the wrong process, silently —
// is refused at the switch into the worker.
func TestPoolDrivenOutsideItsProcessPanics(t *testing.T) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	var pool *Pool
	k.AddServer(kernel.EpVFS, "owner", func(ctx *kernel.Context) {
		pool = NewPool(ctx, 1)
		for {
			ctx.Receive()
		}
	}, kernel.ServerConfig{})
	var crash kernel.CrashInfo
	k.SetCrashHandler(func(ci kernel.CrashInfo) error {
		crash = ci
		k.ControlledShutdown("intruder crashed")
		return nil
	})
	ranJob := false
	k.AddServer(kernel.EpDS, "intruder", func(ctx *kernel.Context) {
		pool.Thread(0).Start(func(*Thread) {
			ranJob = true
			ctx.Yield()
		})
	}, kernel.ServerConfig{})
	root := k.SpawnUser("root", func(ctx *kernel.Context) {
		for {
			ctx.Yield()
		}
	})
	k.SetRootProcess(root.Endpoint())
	k.Run(100_000_000)
	if crash.Victim != kernel.EpDS {
		t.Fatalf("crash = %+v, want the intruder fail-stopped", crash)
	}
	if msg, _ := crash.PanicValue.(string); !strings.Contains(msg, "outside its process") {
		t.Errorf("panic = %v, want the kernel's refusal", crash.PanicValue)
	}
	if ranJob {
		t.Error("the job ran on a worker its flow of control does not own")
	}
}

// A server that owns a pool is fail-stopped while it is a resumer on the
// chain: its worker's SendRec switched the process into the driver, whose
// handler kills it, as RS's hang detection would. The kill is deferred:
// the server's body unwinds when control next passes down through its
// frame, and only then does onKill unwind the worker (DESIGN §4), before
// the crash reaches the recovery handler — no worker coroutine is left
// parked.
func TestFailStopOfResumerUnwindsBodyThenWorker(t *testing.T) {
	k := kernel.New(kernel.DefaultCostModel(), 1)
	var log []string
	var pool *Pool
	k.AddServer(kernel.EpVFS, "threaded", func(ctx *kernel.Context) {
		pool = NewPool(ctx, 1)
		defer func() { log = append(log, "body") }()
		ctx.Receive()
		pool.Thread(0).Start(func(th *Thread) {
			defer func() { log = append(log, "job") }()
			ctx.SendRec(kernel.EpDriver, kernel.Message{Type: 1})
			t.Error("the killed server's worker returned from SendRec")
		})
		t.Error("Start returned although its worker never blocked or finished")
	}, kernel.ServerConfig{})
	k.AddServer(kernel.EpDriver, "driver", func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			if errno := ctx.Kernel().FailStopProcess(m.From, "test"); errno != kernel.OK {
				t.Errorf("FailStopProcess = %v", errno)
			}
			log = append(log, "failstop")
		}
	}, kernel.ServerConfig{})
	handled := false
	k.SetCrashHandler(func(ci kernel.CrashInfo) error {
		if got, want := strings.Join(log, " "), "failstop body job"; got != want {
			t.Errorf("events %q, want %q", got, want)
		}
		if th := pool.Thread(0); th.Busy() || th.next != nil {
			t.Error("the worker is still parked when the crash is handled")
		}
		handled = true
		return k.QuarantineProcess(ci.Victim, "test")
	})
	root := k.SpawnUser("root", func(ctx *kernel.Context) {
		ctx.Send(kernel.EpVFS, kernel.Message{Type: 300})
		for !handled {
			ctx.Yield()
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !handled {
		t.Error("the crash never reached the handler")
	}
}
