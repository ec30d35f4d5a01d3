package boot

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/usr"
)

// armInjection installs a one-shot fail-stop fault at the given
// instrumentation site.
func armInjection(sys *System, site string) {
	armed := true
	sys.Kernel().SetPointHook(func(_ kernel.Endpoint, _, s string) {
		if armed && s == site {
			armed = false
			panic("injected fail-stop fault at " + site)
		}
	})
}

func bootWithPolicy(policy seep.Policy, prog usr.Program) (*System, func() kernel.Result) {
	sys := Boot(Options{Config: core.Config{Policy: policy, Seed: 1}}, prog)
	return sys, func() kernel.Result { return sys.Run(testLimit) }
}

// TestRecoveryDSPutRolledBack is the paper's §III-C flow on DS: a crash
// inside the recovery window rolls the half-applied put back, the
// requester gets E_CRASH (error virtualization), and a retry succeeds —
// exactly once, on a consistent store.
func TestRecoveryDSPutRolledBack(t *testing.T) {
	var (
		firstErrno kernel.Errno
		afterCrash kernel.Errno
		retryErrno kernel.Errno
		finalValue string
	)
	sys, run := bootWithPolicy(seep.PolicyEnhanced, func(p *usr.Proc) int {
		firstErrno = p.DsPut("key", "value")
		_, afterCrash = p.DsGet("key") // must be rolled back: ENOENT
		retryErrno = p.DsPut("key", "value")
		finalValue, _ = p.DsGet("key")
		return 0
	})
	armInjection(sys, "ds.put.applied")

	res := run()
	mustComplete(t, res)
	if firstErrno != kernel.ECRASH {
		t.Fatalf("first put errno = %v, want ECRASH", firstErrno)
	}
	if afterCrash != kernel.ENOENT {
		t.Fatalf("get after crash = %v, want ENOENT (rollback)", afterCrash)
	}
	if retryErrno != kernel.OK || finalValue != "value" {
		t.Fatalf("retry = %v, value = %q", retryErrno, finalValue)
	}
	if sys.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", sys.Recoveries)
	}
}

// TestPessimisticShutsDownWhereEnhancedRecovers: DS publishes a
// non-state-modifying event early in each request. Pessimistic closes
// the window there; enhanced keeps it open. The same fault therefore
// shuts the system down under pessimistic and is recovered under
// enhanced — the central trade-off of Table I/II.
func TestPessimisticShutsDownWhereEnhancedRecovers(t *testing.T) {
	prog := func(p *usr.Proc) int {
		p.DsPut("key", "value")
		return 0
	}

	sysE, runE := bootWithPolicy(seep.PolicyEnhanced, prog)
	armInjection(sysE, "ds.put.applied")
	if res := runE(); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("enhanced outcome = %v (%s), want completed", res.Outcome, res.Reason)
	}

	sysP, runP := bootWithPolicy(seep.PolicyPessimistic, prog)
	armInjection(sysP, "ds.put.applied")
	if res := runP(); res.Outcome != kernel.OutcomeShutdown {
		t.Fatalf("pessimistic outcome = %v (%s), want shutdown", res.Outcome, res.Reason)
	}
}

// TestCrashOutsideWindowShutsDown: a fault after PM's state-modifying
// SEEPs (window closed) must trigger a controlled shutdown, never an
// inconsistent recovery.
func TestCrashOutsideWindowShutsDown(t *testing.T) {
	sys, run := bootWithPolicy(seep.PolicyEnhanced, func(p *usr.Proc) int {
		p.Fork(func(c *usr.Proc) int { return 0 })
		p.Wait()
		return 0
	})
	armInjection(sys, "pm.fork.done")
	res := run()
	if res.Outcome != kernel.OutcomeShutdown {
		t.Fatalf("outcome = %v (%s), want shutdown", res.Outcome, res.Reason)
	}
}

// TestRecoveryPMEarlyFork: a crash at the start of fork, before any
// outbound SEEP, recovers under the enhanced policy and the caller sees
// E_CRASH; a retried fork then works.
func TestRecoveryPMEarlyFork(t *testing.T) {
	var first, second kernel.Errno
	sys, run := bootWithPolicy(seep.PolicyEnhanced, func(p *usr.Proc) int {
		_, first = p.Fork(func(c *usr.Proc) int { return 0 })
		if first == kernel.OK {
			p.Wait()
		}
		_, second = p.Fork(func(c *usr.Proc) int { return 0 })
		if second == kernel.OK {
			p.Wait()
		}
		return 0
	})
	armInjection(sys, "pm.fork.entry")
	res := run()
	mustComplete(t, res)
	if first != kernel.ECRASH {
		t.Fatalf("first fork = %v, want ECRASH", first)
	}
	if second != kernel.OK {
		t.Fatalf("second fork = %v, want OK", second)
	}
}

// TestRecoveryVFSOpenRolledBack: a crash after the VFS created a file
// rolls the creation back; the path does not exist afterwards.
func TestRecoveryVFSOpenRolledBack(t *testing.T) {
	var openErrno, statErrno kernel.Errno
	sys, run := bootWithPolicy(seep.PolicyEnhanced, func(p *usr.Proc) int {
		_, openErrno = p.Create("/victim")
		_, _, statErrno = p.Stat("/victim")
		return 0
	})
	armInjection(sys, "vfs.open.done")
	res := run()
	mustComplete(t, res)
	if openErrno != kernel.ECRASH {
		t.Fatalf("open = %v, want ECRASH", openErrno)
	}
	if statErrno != kernel.ENOENT {
		t.Fatalf("stat after rolled-back create = %v, want ENOENT", statErrno)
	}
}

// TestRecoveryRSItself: RS is recoverable too (paper §V).
func TestRecoveryRSItself(t *testing.T) {
	var first, second kernel.Errno
	sys, run := bootWithPolicy(seep.PolicyEnhanced, func(p *usr.Proc) int {
		_, first = p.RSStatus()
		_, second = p.RSStatus()
		return 0
	})
	armInjection(sys, "rs.status")
	res := run()
	mustComplete(t, res)
	if first != kernel.ECRASH || second != kernel.OK {
		t.Fatalf("RSStatus errnos = %v, %v; want ECRASH, OK", first, second)
	}
	if sys.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", sys.Recoveries)
	}
}

// TestStatelessRestartLosesState: the microreboot baseline restarts DS
// with fresh state — the previously stored key is gone (no crash, but
// silent state loss).
func TestStatelessRestartLosesState(t *testing.T) {
	var put1, get1, get2 kernel.Errno
	sys, run := bootWithPolicy(seep.PolicyStateless, func(p *usr.Proc) int {
		put1 = p.DsPut("key", "value")
		_, get1 = p.DsGet("key") // crash injected here; stateless restart
		_, get2 = p.DsGet("key") // restarted DS has lost the key
		return 0
	})
	armInjection(sys, "ds.get")
	res := run()
	mustComplete(t, res)
	if put1 != kernel.OK {
		t.Fatalf("put = %v", put1)
	}
	if get1 != kernel.ECRASH {
		t.Fatalf("get during crash = %v, want ECRASH", get1)
	}
	if get2 != kernel.ENOENT {
		t.Fatalf("get after stateless restart = %v, want ENOENT (state lost)", get2)
	}
}

// TestNaiveRestartKeepsCrashedState: the naive baseline restarts DS
// with its state exactly as it was at the crash — including the
// half-applied put, which the caller was told failed. The state is
// inconsistent with the caller's view: the put "failed" yet the key is
// there.
func TestNaiveRestartKeepsCrashedState(t *testing.T) {
	var putErrno kernel.Errno
	var value string
	var getErrno kernel.Errno
	sys, run := bootWithPolicy(seep.PolicyNaive, func(p *usr.Proc) int {
		putErrno = p.DsPut("key", "value")
		value, getErrno = p.DsGet("key")
		return 0
	})
	armInjection(sys, "ds.put.applied")
	res := run()
	mustComplete(t, res)
	if putErrno != kernel.ECRASH {
		t.Fatalf("put = %v, want ECRASH", putErrno)
	}
	if getErrno != kernel.OK || value != "value" {
		t.Fatalf("get = %q/%v: naive restart should keep the half-applied put", value, getErrno)
	}
}

// TestStatelessPMLosesChildren: a stateless PM restart drops the
// process table, so the pre-crash child can never be waited for — the
// workload observes state loss (failed syscalls) even though the
// system may limp on. The in-flight child's own exit then hits a PM
// with no record of it, re-crashing PM (the cascade the paper's
// stateless baseline suffers from).
func TestStatelessPMLosesChildren(t *testing.T) {
	var firstWait, secondWait kernel.Errno
	sys, run := bootWithPolicy(seep.PolicyStateless, func(p *usr.Proc) int {
		p.Fork(func(c *usr.Proc) int { c.Compute(100_000); return 0 })
		_, _, firstWait = p.Wait() // crash injected here
		_, _, secondWait = p.Wait()
		return 0
	})
	armInjection(sys, "pm.wait.entry")
	res := run()
	if res.Outcome == kernel.OutcomeShutdown {
		t.Fatalf("stateless policy cannot shut down cleanly: %v (%s)", res.Outcome, res.Reason)
	}
	if firstWait != kernel.ECRASH {
		t.Fatalf("first wait = %v, want ECRASH", firstWait)
	}
	if res.Outcome == kernel.OutcomeCompleted && secondWait == kernel.OK {
		t.Fatal("stateless restart preserved the child: state was not lost")
	}
	if sys.Recoveries < 1 {
		t.Fatalf("recoveries = %d, want >= 1", sys.Recoveries)
	}
}

// TestUserProcessCrashCleansUp: a panicking user program is reaped and
// the parent's wait returns the abnormal status.
func TestUserProcessCrashCleansUp(t *testing.T) {
	var status int64
	var errno kernel.Errno
	sys, run := bootWithPolicy(seep.PolicyEnhanced, func(p *usr.Proc) int {
		p.Fork(func(c *usr.Proc) int {
			c.Compute(1000)
			panic("user bug")
		})
		_, status, errno = p.Wait()
		return 0
	})
	_ = sys
	res := run()
	mustComplete(t, res)
	if errno != kernel.OK || status != -1 {
		t.Fatalf("wait after child crash = %d/%v, want -1/OK", status, errno)
	}
}

// TestCrashStormQuarantines: a fault that re-triggers on every recovery
// exhausts the per-component crash-storm budget and the sequencer
// quarantines the component; the rest of the machine keeps running and
// later requests to it fail ECRASH (graceful degradation).
func TestCrashStormQuarantines(t *testing.T) {
	var errs []kernel.Errno
	sys := Boot(Options{Config: core.Config{
		Policy: seep.PolicyEnhanced, Seed: 1, MaxRecoveries: 3,
		// Keep the storm tight: no backoff deferrals between crashes.
		RestartBackoffBase: -1,
	}},
		func(p *usr.Proc) int {
			for i := 0; i < 10; i++ {
				errs = append(errs, p.DsPut("k", "v"))
			}
			return 0
		})
	// Permanent fault: fires every time (persistent software fault that
	// recovery cannot clear because it is in the code itself).
	sys.Kernel().SetPointHook(func(_ kernel.Endpoint, _, s string) {
		if s == "ds.put.applied" {
			panic("persistent fault")
		}
	})
	res := sys.Run(testLimit)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s), want completed under quarantine", res.Outcome, res.Reason)
	}
	if !sys.Quarantined(kernel.EpDS) {
		t.Fatalf("ds not quarantined; quarantines = %v", sys.QuarantinedComponents())
	}
	if len(errs) != 10 {
		t.Fatalf("workload issued %d puts, want 10", len(errs))
	}
	for i, e := range errs {
		if e != kernel.ECRASH {
			t.Fatalf("put %d errno = %v, want ECRASH", i, e)
		}
	}
}

// TestCrashStormAbortsWhenQuarantineDisabled: with the sequencer's
// quarantine escalation pinned off, an exhausted storm budget aborts
// the whole run — the pre-sequencer fail-hard behaviour single-fault
// campaigns rely on.
func TestCrashStormAbortsWhenQuarantineDisabled(t *testing.T) {
	sys := Boot(Options{Config: core.Config{
		Policy: seep.PolicyEnhanced, Seed: 1, MaxRecoveries: 3,
		DisableQuarantine:  true,
		RestartBackoffBase: -1,
	}},
		func(p *usr.Proc) int {
			for i := 0; i < 10; i++ {
				p.DsPut("k", "v")
			}
			return 0
		})
	sys.Kernel().SetPointHook(func(_ kernel.Endpoint, _, s string) {
		if s == "ds.put.applied" {
			panic("persistent fault")
		}
	})
	res := sys.Run(testLimit)
	if res.Outcome != kernel.OutcomeCrashed {
		t.Fatalf("outcome = %v (%s), want crashed (storm)", res.Outcome, res.Reason)
	}
}

// TestRecoveredComponentCoverageAccumulates: coverage stats span
// recoveries (window stats of the crashed instance are not lost).
func TestRecoveredComponentCoverageAccumulates(t *testing.T) {
	sys, run := bootWithPolicy(seep.PolicyEnhanced, func(p *usr.Proc) int {
		p.DsPut("a", "1")
		p.DsPut("b", "2")
		p.DsPut("c", "3")
		return 0
	})
	armInjection(sys, "ds.put.applied")
	res := run()
	mustComplete(t, res)
	for _, cs := range sys.Stats() {
		if cs.Name != "ds" {
			continue
		}
		if cs.Recoveries != 1 {
			t.Fatalf("ds recoveries = %d, want 1", cs.Recoveries)
		}
		total := cs.Coverage.BlocksIn + cs.Coverage.BlocksOut
		if total < 6 {
			t.Fatalf("ds blocks = %d, want >= 6 (stats must span recovery)", total)
		}
		return
	}
	t.Fatal("no ds component in stats")
}

// TestRecoveryUnderFullCopyCheckpointing: the full-copy checkpointing
// alternative recovers just as consistently as the undo log — it is only
// slower (see eval.RunAblationCheckpointing).
func TestRecoveryUnderFullCopyCheckpointing(t *testing.T) {
	// The subtest is named for the one FullCopy charge rule, the
	// whole-section copy.
	t.Run("legacy=true", func(t *testing.T) {
		var first, afterCrash, retry kernel.Errno
		sys := Boot(Options{Config: core.Config{
			Policy:          seep.PolicyEnhanced,
			Seed:            1,
			Instrumentation: memlog.FullCopy,
		}}, func(p *usr.Proc) int {
			first = p.DsPut("key", "value")
			_, afterCrash = p.DsGet("key")
			retry = p.DsPut("key", "value")
			return 0
		})
		armInjection(sys, "ds.put.applied")
		res := sys.Run(testLimit)
		mustComplete(t, res)
		if first != kernel.ECRASH || afterCrash != kernel.ENOENT || retry != kernel.OK {
			t.Fatalf("errnos = %v/%v/%v, want ECRASH/ENOENT/OK", first, afterCrash, retry)
		}
	})
}
