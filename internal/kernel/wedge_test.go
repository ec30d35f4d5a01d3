package kernel

import (
	"testing"
	"time"
)

// beatPeriod is the heartbeat interval of the miniature wedge machine.
const beatPeriod = 100_000

// wedgeMachine builds the smallest machine with the shape of a wedged
// campaign run: a "beat" server that pings a "pong" server on every
// alarm and re-arms it, and a root user program blocked in Receive for
// a message nobody will send. tune runs before the machine starts.
func wedgeMachine(tune func(k *Kernel)) *Kernel {
	k := newTestKernel()
	k.AddServer(EpRS, "beat", func(ctx *Context) {
		ctx.SetAlarm(beatPeriod)
		for {
			if m := ctx.Receive(); m.Type == MsgAlarm {
				ctx.Send(EpPM, Message{Type: 77})
				ctx.SetAlarm(beatPeriod)
			}
		}
	}, ServerConfig{})
	k.AddServer(EpPM, "pong", func(ctx *Context) {
		for {
			m := ctx.Receive()
			ctx.Send(m.From, Message{Type: 78})
		}
	}, ServerConfig{})
	root := k.SpawnUser("waiter", func(ctx *Context) {
		for {
			ctx.Receive()
		}
	})
	k.SetRootProcess(root.Endpoint())
	if tune != nil {
		tune(k)
	}
	return k
}

// parkForever is a process body that drains its inbox and never
// replies.
func parkForever(ctx *Context) {
	for {
		ctx.Receive()
	}
}

// quiescentAtIdle runs the machine for the given number of idle points
// and returns what WedgeQuiescent said at each.
func quiescentAtIdle(k *Kernel, idles int) []bool {
	var got []bool
	k.SetIdleHook(func() bool {
		got = append(got, k.WedgeQuiescent())
		return len(got) >= idles
	})
	k.Run(testLimit)
	return got
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

func TestIdleHookEndsRunAsHang(t *testing.T) {
	k := wedgeMachine(nil)
	calls := 0
	k.SetIdleHook(func() bool { calls++; return calls == 4 })
	res := k.Run(testLimit)
	if res.Outcome != OutcomeHang || res.Reason != "cycle limit exceeded" {
		t.Fatalf("certified run ended %v (%s), want the limit's own result", res.Outcome, res.Reason)
	}
	// One idle point per heartbeat round: the run ends in the fourth
	// round instead of round testLimit/beatPeriod.
	if res.Cycles >= 4*beatPeriod {
		t.Errorf("run ended at cycle %d, want before %d", res.Cycles, 4*beatPeriod)
	}
}

func TestIdleHookUnsetRunsToTheLimit(t *testing.T) {
	res := wedgeMachine(nil).Run(testLimit)
	if res.Outcome != OutcomeHang || res.Cycles <= testLimit {
		t.Fatalf("uncertified run ended %v at %d, want a hang past %d", res.Outcome, res.Cycles, testLimit)
	}
}

// The base machine is wedge-quiescent at every idle point; each case
// adds exactly one thing a WedgeQuiescent clause exists to refuse.
func TestWedgeQuiescentGates(t *testing.T) {
	if got := quiescentAtIdle(wedgeMachine(nil), 4); len(got) != 4 || !allTrue(got) {
		t.Fatalf("base machine not wedge-quiescent at every idle point: %v", got)
	}
	cases := []struct {
		name string
		tune func(k *Kernel)
		// want is WedgeQuiescent at the first idle points.
		want []bool
	}{
		{"user alarm pending", func(k *Kernel) {
			k.SpawnUser("sleeper", func(ctx *Context) {
				ctx.SetAlarm(beatPeriod * 5 / 2)
				parkForever(ctx)
			})
		}, []bool{false, false, false, true}},
		{"deferred crash pending", func(k *Kernel) {
			k.SetCrashHandler(func(info CrashInfo) error {
				if !info.Deferred {
					k.DeferCrash(info, beatPeriod*5/2)
				}
				return nil
			})
			k.AddServer(EpVM, "faulty", func(ctx *Context) { panic("boom") }, ServerConfig{})
		}, []bool{false, false, false, true}},
		{"reply errno override armed", func(k *Kernel) {
			k.OverrideNextReplyErrno(EpPM, EIO)
		}, []bool{false, false}},
		{"component quarantined", func(k *Kernel) {
			k.AddServer(EpVM, "detached", parkForever, ServerConfig{})
			if err := k.QuarantineProcess(EpVM, "test"); err != nil {
				panic(err)
			}
		}, []bool{false, false}},
		{"transport fault armed", func(k *Kernel) {
			k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: beatPeriod * 10}, 1)
			k.ArmIPCFault(EpVFS, IPCDrop) // nobody at EpVFS ever sends
		}, []bool{false, false}},
		{"delayed message held", func(k *Kernel) {
			// Idle before the first round with the fault still armed; idle
			// again with the first ping held for 25 000 cycles; from then on
			// nothing is in flight.
			k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: beatPeriod * 10}, 1)
			k.ArmIPCFault(EpRS, IPCDelay)
		}, []bool{false, false, true, true}},
		{"reliable-send deadline armed", func(k *Kernel) {
			k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: beatPeriod * 10}, 1)
			k.AddServer(EpVM, "silent", parkForever, ServerConfig{})
			k.SpawnUser("caller", func(ctx *Context) { ctx.SendRec(EpVM, Message{Type: 5}) })
		}, []bool{false, false}},
		{"server blocked in SendRec", func(k *Kernel) {
			k.AddServer(EpVM, "stuck", func(ctx *Context) { ctx.SendRec(EpUserBase, Message{Type: 5}) }, ServerConfig{})
			// The waiter drains the request and never replies.
		}, []bool{false, false}},
		{"queued message behind a SendRec", func(k *Kernel) {
			k.AddServer(EpVM, "silent", parkForever, ServerConfig{})
			k.SpawnUser("caller", func(ctx *Context) {
				ctx.Kernel().PostMessage(EpKernel, ctx.Endpoint(), Message{Type: 9})
				ctx.SendRec(EpVM, Message{Type: 5})
			})
		}, []bool{false, false}},
	}
	for _, tc := range cases {
		got := quiescentAtIdle(wedgeMachine(tc.tune), len(tc.want))
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d idle points, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: WedgeQuiescent at idle points = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// The stamp is what makes "nothing the fingerprint cannot see happened
// in between" checkable: it stays put across pure server rounds and
// moves when a user process wakes, a crash is trapped or either RNG is
// drawn from.
func TestWedgeStampMovesOnHiddenProgress(t *testing.T) {
	var stamps []WedgeStamp
	var k *Kernel
	k = wedgeMachine(func(k *Kernel) {
		k.SetCrashHandler(func(CrashInfo) error { return nil })
		k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: beatPeriod * 10}, 1)
		k.SpawnUser("victim", func(ctx *Context) {
			for {
				ctx.Receive()
			}
		})
	})
	victim := EpUserBase + 1
	k.SetIdleHook(func() bool {
		stamps = append(stamps, k.WedgeStamp())
		switch len(stamps) {
		case 3:
			k.PostMessage(EpKernel, EpUserBase, Message{Type: 9}) // wakes the waiter
		case 5:
			k.FailStopProcess(victim, "test")
		case 7:
			k.rng.Uint64()
		case 9:
			k.ipc.rng.Uint64()
		}
		return len(stamps) == 11
	})
	k.Run(testLimit)
	if len(stamps) != 11 {
		t.Fatalf("%d idle points, want 11", len(stamps))
	}
	// The first idle point precedes the first round: the heartbeat alarm
	// is a whole period away there, a period less one round ever after.
	moved := map[int]string{3: "user wake", 5: "trapped crash", 7: "machine RNG draw", 9: "IPC RNG draw"}
	for i := 2; i < len(stamps); i++ {
		what, want := moved[i]
		if got := stamps[i] != stamps[i-1]; got != want {
			t.Errorf("stamp moved=%v between idle points %d and %d, want %v (%s)", got, i, i+1, want, what)
		}
	}
}

// A one-shot deadline held by a server (PM's sleep timer) is invisible to
// the fingerprint and to WedgeQuiescent, but it comes one period closer
// every round: the stamp must move until it has fired.
func TestWedgeStampTracksAlarmPhase(t *testing.T) {
	var stamps []WedgeStamp
	var quiescent []bool
	var k *Kernel
	k = wedgeMachine(func(k *Kernel) {
		k.AddServer(EpVM, "timer", func(ctx *Context) {
			ctx.SetAlarm(beatPeriod * 7 / 2)
			for {
				ctx.Receive()
			}
		}, ServerConfig{})
	})
	k.SetIdleHook(func() bool {
		stamps = append(stamps, k.WedgeStamp())
		quiescent = append(quiescent, k.WedgeQuiescent())
		return len(stamps) == 8
	})
	k.Run(testLimit)
	if !allTrue(quiescent) {
		t.Fatalf("a server-owned timer must pass WedgeQuiescent (the stamp is what catches it): %v", quiescent)
	}
	// Idle points 1-4 precede the timer (3.5 periods in), 5 follows it
	// half a period before the next round, 6 onwards are whole rounds
	// apart with only the heartbeat pending.
	for i := 1; i < len(stamps); i++ {
		if got, want := stamps[i] != stamps[i-1], i <= 5; got != want {
			t.Errorf("stamp moved=%v between idle points %d and %d, want %v", got, i, i+1, want)
		}
	}
}

// A killed process unwinds through its deferred calls; a blocking
// Context call made from there must re-raise the kill without touching
// kernel state instead of suspending into the reap that resumed it. (The
// same for a body killed while its worker thread is inside a kernel call:
// cothread.TestKillUnwindsWorkerInsideKernelCall — cothread imports this
// package, so that half lives there.)
func TestKillUnwindsDeferredBlockingCalls(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpVFS, "fs", func(ctx *Context) {
		for {
			ctx.Receive() // never replies
		}
	}, ServerConfig{})
	k.SpawnUser("child", func(ctx *Context) {
		defer ctx.Barrier()
		defer ctx.Yield()
		defer ctx.Receive()
		defer ctx.SendRec(EpVFS, Message{Type: 2}) // the suite's `defer p.Unlink(dir)`
		ctx.SendRec(EpVFS, Message{Type: 1})
	})
	root := k.SpawnUser("main", func(ctx *Context) {
		ctx.Yield() // let the child block
		ctx.Yield()
	})
	k.SetRootProcess(root.Endpoint())

	done := make(chan Result, 1)
	go func() { done <- k.Run(testLimit) }()
	select {
	case res := <-done:
		if res.Outcome != OutcomeCompleted {
			t.Errorf("outcome = %v (%s)", res.Outcome, res.Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return: teardown deadlocked on a deferred system call")
	}
	// Only the child's first request ever crossed the kernel.
	if hops := k.Counters().Get("kernel.msg_hops"); hops != 2 {
		t.Errorf("kernel.msg_hops = %d, want 2 (request sent, request received)", hops)
	}
}
