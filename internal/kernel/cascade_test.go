package kernel

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestDeferCrashDelaysRecovery: a deferred crash is not handled until
// its due time; IPC to the victim meanwhile enqueues instead of failing
// (the inbox survives the eventual restart).
func TestDeferCrashDelaysRecovery(t *testing.T) {
	k := newTestKernel()
	const delay = 500_000
	var crashedAt, recoveredAt sim.Cycles
	deferred := false
	k.SetCrashHandler(func(ci CrashInfo) error {
		if !ci.Deferred {
			// First sight of the crash: postpone recovery, as restart
			// backoff does.
			deferred = true
			k.DeferCrash(ci, delay)
			return nil
		}
		recoveredAt = k.Clock().Now()
		// Error-virtualize the request that died with the victim, then
		// restart. The inbox — including messages queued while the
		// recovery was pending — survives the replacement.
		if ci.CurNeedsReply {
			if err := k.DeliverReply(EpDS, ci.CurSender, Message{Errno: ECRASH}); err != nil {
				return err
			}
		}
		_, err := k.ReplaceProcess(EpDS, "victim", echoServer, ServerConfig{})
		return err
	})
	k.AddServer(EpDS, "victim", func(ctx *Context) {
		ctx.Receive()
		crashedAt = ctx.Now()
		panic("fault")
	}, ServerConfig{})

	var aReply Message
	k.SpawnUser("a", func(ctx *Context) {
		aReply = ctx.SendRec(EpDS, Message{Type: 1}) // crashes the victim
	})
	var reply Message
	root := k.SpawnUser("client", func(ctx *Context) {
		// Let process a crash the victim first; the crash is deferred, so
		// RecoveryPending must flip on before the recovery actually runs.
		for i := 0; i < 100 && !k.RecoveryPending(EpDS); i++ {
			ctx.Tick(1_000)
			ctx.Yield()
		}
		if !k.RecoveryPending(EpDS) {
			t.Error("no pending recovery after the crash was deferred")
		}
		// The victim is dead but recovery is pending: this enqueues and
		// blocks until the deferred recovery installs the replacement.
		reply = ctx.SendRec(EpDS, Message{Type: 1, A: 41})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !deferred {
		t.Fatal("crash never reached the handler undeferred")
	}
	if recoveredAt < crashedAt+delay {
		t.Fatalf("recovery ran at %d, want >= %d (crash at %d + delay %d)",
			recoveredAt, crashedAt+delay, crashedAt, delay)
	}
	if aReply.Errno != ECRASH {
		t.Fatalf("in-flight request errno = %v, want ECRASH", aReply.Errno)
	}
	if reply.Errno != OK || reply.A != 42 {
		t.Fatalf("queued request reply = %+v, want A=42 served by the replacement", reply)
	}
}

// TestRecoveryPendingReflectsQueue: RecoveryPending is true exactly
// while a crash is queued for the endpoint.
func TestRecoveryPendingReflectsQueue(t *testing.T) {
	k := newTestKernel()
	k.SetCrashHandler(func(ci CrashInfo) error {
		if !k.RecoveryPending(ci.Victim) {
			// The crash being handled has been dequeued already.
			return nil
		}
		t.Error("RecoveryPending true while handling the only crash")
		return nil
	})
	k.AddServer(EpDS, "victim", func(ctx *Context) {
		ctx.Receive()
		if k.RecoveryPending(EpDS) {
			t.Error("RecoveryPending true before any crash")
		}
		panic("fault")
	}, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.SendRec(EpDS, Message{Type: 1})
	})
	k.SetRootProcess(root.Endpoint())
	k.Run(testLimit)
	if k.RecoveryPending(EpDS) {
		t.Error("RecoveryPending true after recovery completed")
	}
}

// TestQuarantineProcessDetaches: a quarantined endpoint is torn down,
// later SendRec fails ECRASH immediately, Send fails ECRASH, and the
// endpoint cannot be replaced.
func TestQuarantineProcessDetaches(t *testing.T) {
	k := newTestKernel()
	k.SetCrashHandler(func(ci CrashInfo) error {
		return k.QuarantineProcess(ci.Victim, "repeat offender")
	})
	k.AddServer(EpDS, "victim", func(ctx *Context) {
		ctx.Receive()
		panic("fault")
	}, ServerConfig{})

	var first, second Message
	var sendErr Errno
	root := k.SpawnUser("client", func(ctx *Context) {
		first = ctx.SendRec(EpDS, Message{Type: 1})
		second = ctx.SendRec(EpDS, Message{Type: 1})
		sendErr = ctx.Send(EpDS, Message{Type: 1})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if first.Errno != ECRASH {
		t.Fatalf("in-flight request errno = %v, want ECRASH", first.Errno)
	}
	if second.Errno != ECRASH {
		t.Fatalf("post-quarantine SendRec errno = %v, want ECRASH", second.Errno)
	}
	if sendErr != ECRASH {
		t.Fatalf("post-quarantine Send errno = %v, want ECRASH", sendErr)
	}
	if !k.IsQuarantined(EpDS) {
		t.Fatal("IsQuarantined false after quarantine")
	}
	if !strings.Contains(k.quarantined[EpDS], "repeat offender") {
		t.Fatalf("quarantine reason = %q", k.quarantined[EpDS])
	}
	if _, err := k.ReplaceProcess(EpDS, "victim", echoServer, ServerConfig{}); err == nil {
		t.Fatal("ReplaceProcess of a quarantined endpoint must fail")
	}
	if got := k.Counters().Get("kernel.quarantine_ecrash"); got != 2 {
		t.Fatalf("kernel.quarantine_ecrash = %d, want 2", got)
	}
}

// TestFailStopProcessConvertsToCrash: fail-stopping a live process
// unwinds it and routes it through the normal crash path, preserving
// the in-flight request for reconciliation.
func TestFailStopProcessConvertsToCrash(t *testing.T) {
	k := newTestKernel()
	var seen CrashInfo
	k.SetCrashHandler(func(ci CrashInfo) error {
		seen = ci
		_, err := k.ReplaceProcess(EpDS, "victim", echoServer, ServerConfig{})
		if err == nil && ci.CurNeedsReply {
			return k.DeliverReply(EpDS, ci.CurSender, Message{Errno: ECRASH})
		}
		return err
	})
	// The victim hangs while serving the request: it receives (recording
	// the sender) and then spins without replying.
	k.AddServer(EpDS, "victim", func(ctx *Context) {
		ctx.Receive()
		ctx.Hang()
	}, ServerConfig{})
	// A watchdog server fail-stops the hung victim after a delay.
	k.AddServer(EpRS, "watchdog", func(ctx *Context) {
		ctx.SetAlarm(100_000)
		ctx.Receive()
		if errno := k.FailStopProcess(EpDS, "missed heartbeats"); errno != OK {
			t.Errorf("FailStopProcess = %v", errno)
		}
		if errno := k.FailStopProcess(EpDS, "again"); errno != ESRCH {
			t.Errorf("second FailStopProcess = %v, want ESRCH", errno)
		}
	}, ServerConfig{})

	var reply Message
	root := k.SpawnUser("client", func(ctx *Context) {
		reply = ctx.SendRec(EpDS, Message{Type: 1, A: 1})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if seen.Victim != EpDS || seen.CurSender != root.Endpoint() || !seen.CurNeedsReply {
		t.Fatalf("crash info = %+v, want victim=ds with in-flight request from root", seen)
	}
	if reply.Errno != ECRASH {
		t.Fatalf("caller errno = %v, want ECRASH (error virtualization)", reply.Errno)
	}
	if got := k.Counters().Get("kernel.failstops"); got != 1 {
		t.Fatalf("kernel.failstops = %d, want 1", got)
	}
}
