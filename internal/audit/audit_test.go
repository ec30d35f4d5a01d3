package audit_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// cleanSnapshot is a well-formed machine picture: every broken fixture
// below is this snapshot with exactly one invariant deliberately
// violated, so a test that passes on the broken fixture but also passes
// on the clean one would be vacuous — TestCleanSnapshotConsistent
// guards against that.
func cleanSnapshot() audit.Snapshot {
	user := int64(kernel.EpUserBase)
	return audit.Snapshot{
		At: 1000,
		Components: []audit.ComponentState{
			{EP: kernel.EpPM, Name: "pm", UserEPs: []int64{user, user + 1}, HasUsers: true},
			{EP: kernel.EpVM, Name: "vm", SpaceOwners: []int64{user, user + 1}, HasSpaces: true},
			{EP: kernel.EpVFS, Name: "vfs", FDOwners: []int64{user, int64(kernel.EpDriver)}, HasFDs: true},
			{EP: kernel.EpDS, Name: "ds", Subscribers: []int64{user + 1}, HasSubs: true},
		},
		IPC: &kernel.IPCStats{Sent: 10, Delivered: 7, Dropped: 1, DupSuppressed: 1, PendingDelayed: 1},
	}
}

func violations(t *testing.T, s audit.Snapshot, oracle string) []audit.Violation {
	t.Helper()
	var hit []audit.Violation
	for _, v := range audit.Check(s) {
		if v.Oracle != oracle {
			t.Fatalf("unexpected %s violation: %s", v.Oracle, v)
		}
		hit = append(hit, v)
	}
	return hit
}

func TestCleanSnapshotConsistent(t *testing.T) {
	if vs := audit.Check(cleanSnapshot()); len(vs) != 0 {
		t.Fatalf("clean snapshot produced violations: %v", vs)
	}
}

func TestOraclePMVMAgreementBroken(t *testing.T) {
	// A process with no address space: half-applied fork seen from PM.
	s := cleanSnapshot()
	s.Components[0].UserEPs = append(s.Components[0].UserEPs, 105)
	if got := violations(t, s, "pm-vm-agreement"); len(got) != 1 {
		t.Fatalf("orphan process: violations = %v", got)
	}

	// An address space with no process: half-applied fork seen from VM.
	s = cleanSnapshot()
	s.Components[1].SpaceOwners = append(s.Components[1].SpaceOwners, 106)
	if got := violations(t, s, "pm-vm-agreement"); len(got) != 1 {
		t.Fatalf("orphan space: violations = %v", got)
	}

	// The same disagreement is exempt while either table owner is busy
	// (the transaction may still be in flight) or quarantined.
	s.Components[0].Busy = true
	if got := audit.Check(s); len(got) != 0 {
		t.Fatalf("busy PM not exempt: %v", got)
	}
	s.Components[0].Busy = false
	s.Components[1].QuarantinedCore = true
	s.Components[1].QuarantinedKernel = true
	if got := audit.Check(s); len(got) != 0 {
		t.Fatalf("quarantined VM not exempt: %v", got)
	}
}

func TestOracleVFSOwnerBroken(t *testing.T) {
	// An fd owned by a user endpoint PM does not list: leaked descriptor.
	s := cleanSnapshot()
	s.Components[2].FDOwners = append(s.Components[2].FDOwners, 107)
	if got := violations(t, s, "vfs-owner"); len(got) != 1 {
		t.Fatalf("leaked fd: violations = %v", got)
	}
	// Server-owned descriptors (below EpUserBase) are always legal.
	s = cleanSnapshot()
	s.Components[2].FDOwners = append(s.Components[2].FDOwners, int64(kernel.EpRS))
	if got := audit.Check(s); len(got) != 0 {
		t.Fatalf("server fd flagged: %v", got)
	}
}

func TestOracleDSOwnerBroken(t *testing.T) {
	s := cleanSnapshot()
	s.Components[3].Subscribers = append(s.Components[3].Subscribers, 108)
	if got := violations(t, s, "ds-owner"); len(got) != 1 {
		t.Fatalf("leaked subscription: violations = %v", got)
	}
}

func TestOracleUndoLogBroken(t *testing.T) {
	s := cleanSnapshot()
	s.Components[3].LogLen = 4 // window closed: records leaked
	if got := violations(t, s, "undo-log"); len(got) != 1 {
		t.Fatalf("leaked log: violations = %v", got)
	}
	s.Components[3].WindowOpen = true // open window: logging is normal
	if got := audit.Check(s); len(got) != 0 {
		t.Fatalf("open-window log flagged: %v", got)
	}
}

func TestOracleIPCConservationBroken(t *testing.T) {
	s := cleanSnapshot()
	s.IPC.Delivered-- // one transmission vanished from the ledger
	if got := violations(t, s, "ipc-conservation"); len(got) != 1 {
		t.Fatalf("unbalanced ledger: violations = %v", got)
	}
	s.IPC = nil // plane disabled: oracle is skipped, not vacuously true
	if got := audit.Check(s); len(got) != 0 {
		t.Fatalf("nil ledger flagged: %v", got)
	}
}

func TestOracleQuarantineBroken(t *testing.T) {
	s := cleanSnapshot()
	s.Components[1].QuarantinedKernel = true // engine disagrees
	if got := violations(t, s, "quarantine-consistency"); len(got) != 1 {
		t.Fatalf("split quarantine: violations = %v", got)
	}
}

// crashOnce is a minimal recoverable component that fail-stops on its
// n-th request, for exercising the post-recovery audit hook.
type crashOnce struct {
	calls   *memlog.Cell[int64]
	crashOn int64
	seen    *int64
}

func (c *crashOnce) Name() string { return "crashonce" }

func (c *crashOnce) Handle(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("crashonce.handle")
	c.calls.Set(c.calls.Get() + 1)
	*c.seen++
	if c.crashOn > 0 && *c.seen == c.crashOn {
		ctx.Crash("audit test: planned crash on call %d", c.crashOn)
	}
	ctx.Reply(m.From, kernel.Message{A: c.calls.Get()})
}

const echoEP = kernel.EpDS

func TestAuditorRunsAfterRecovery(t *testing.T) {
	o := core.NewOS(core.Config{Policy: seep.PolicyEnhanced, Seed: 1})
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) core.Component {
		return &crashOnce{calls: memlog.NewCell(st, "c.calls", int64(0)), crashOn: 2, seen: &seen}
	})
	o.SpawnInit("client", func(ctx *kernel.Context) {
		for i := 0; i < 4; i++ {
			ctx.SendRec(echoEP, kernel.Message{Type: 300})
		}
	})
	aud := audit.Attach(o)
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if o.Recoveries != 1 {
		t.Fatalf("recoveries = %d", o.Recoveries)
	}
	final := aud.Final()
	reports := aud.Reports()
	// One pass after the completed recovery, plus the final pass.
	if len(reports) != 2 || reports[0].Final || !reports[1].Final {
		t.Fatalf("reports = %+v", reports)
	}
	if !aud.Consistent() || !final.Consistent() {
		t.Fatalf("violations: %v", aud.Violations())
	}
}

func TestAuditorSurvivesIPCFaults(t *testing.T) {
	// Every request must complete despite drops, duplicates, delays and
	// corruption, and the final audit must balance the transport ledger.
	o := core.NewOS(core.Config{
		Policy: seep.PolicyEnhanced,
		Seed:   7,
		IPCFaults: kernel.IPCFaultConfig{
			DropBP: 300, DupBP: 200, DelayBP: 200, CorruptBP: 200,
		},
		IPCFaultSeed: 99,
		IPCPlane:     true,
	})
	o.AddComponent(echoEP, func(st *memlog.Store) core.Component {
		var seen int64
		return &crashOnce{calls: memlog.NewCell(st, "c.calls", int64(0)), seen: &seen}
	})
	var bad []kernel.Errno
	o.SpawnInit("client", func(ctx *kernel.Context) {
		for i := 0; i < 50; i++ {
			if r := ctx.SendRec(echoEP, kernel.Message{Type: 300, A: int64(i)}); r.Errno != kernel.OK {
				bad = append(bad, r.Errno)
			}
		}
	})
	aud := audit.Attach(o)
	res := o.Run(4_000_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if len(bad) != 0 {
		t.Fatalf("requests failed under IPC faults: %v", bad)
	}
	st, ok := o.Kernel().IPCStats()
	if !ok {
		t.Fatal("IPC plane not enabled")
	}
	if st.Dropped == 0 && st.Duplicated == 0 && st.Delayed == 0 && st.CorruptInjected == 0 {
		t.Fatalf("no faults fired; stats = %+v", st)
	}
	if rep := aud.Final(); !rep.Consistent() {
		t.Fatalf("final audit inconsistent: %v", rep.Violations)
	}
}

func TestAuditorFullSystemCleanRun(t *testing.T) {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	var report testsuite.Report
	sys := boot.Boot(boot.Options{
		Config:     core.Config{Policy: seep.PolicyEnhanced, Seed: 42},
		Registry:   reg,
		Heartbeats: true,
	}, testsuite.RunnerInit(&report))
	aud := audit.Attach(sys.OS)
	res := sys.Run(sim.Cycles(4_000_000_000))
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !report.Complete() || report.Failed != 0 {
		t.Fatalf("suite: complete=%v failed=%d", report.Complete(), report.Failed)
	}
	if rep := aud.Final(); !rep.Consistent() {
		t.Fatalf("final audit inconsistent: %v", rep.Violations)
	}
}
