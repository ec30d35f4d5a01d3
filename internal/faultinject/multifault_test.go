package faultinject

import (
	"testing"

	"repro/internal/seep"
)

// TestRunMultiDoubleCrashSurvives: two independent fail-stop faults in
// different servers within one boot; the sequencer recovers them
// serially and the suite still completes.
func TestRunMultiDoubleCrashSurvives(t *testing.T) {
	injs := []MultiInjection{
		{Injection: Injection{Server: "ds", Site: "ds.put.applied", Occurrence: 1, Type: FaultCrash}},
		{Injection: Injection{Server: "vfs", Site: "vfs.read.entry", Occurrence: 1, Type: FaultCrash}},
	}
	rr := RunMultiWith(seep.PolicyEnhanced, 42, injs, IPCOptions{})
	if rr.Triggered != 2 {
		t.Fatalf("triggered %d faults, want 2 (%+v)", rr.Triggered, rr)
	}
	if rr.Outcome == OutcomeCrash {
		t.Fatalf("double fault crashed the machine: %s", rr.Reason)
	}
	if rr.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want >= 2", rr.Recoveries)
	}
}

// TestRunMultiRecoveryPathFaultEscalates: a fault planted inside the
// restart sequence makes the first recovery attempt crash; the
// sequencer retries and the machine survives without an abort.
func TestRunMultiRecoveryPathFaultEscalates(t *testing.T) {
	injs := []MultiInjection{
		{Injection: Injection{Server: "ds", Site: "ds.put.applied", Occurrence: 1, Type: FaultCrash}},
		{Injection: Injection{Occurrence: 1, Type: FaultCrash}, DuringRecovery: true},
	}
	rr := RunMultiWith(seep.PolicyEnhanced, 42, injs, IPCOptions{})
	if rr.Triggered != 2 {
		t.Fatalf("triggered %d faults, want 2 (%+v)", rr.Triggered, rr)
	}
	if rr.Outcome == OutcomeCrash {
		t.Fatalf("recovery-path fault crashed the machine: %s", rr.Reason)
	}
}

// TestRunMultiDeterministic: the same seed and plan produce the same
// classified outcome and counters.
func TestRunMultiDeterministic(t *testing.T) {
	injs := []MultiInjection{
		{Injection: Injection{Server: "ds", Site: "ds.put.applied", Occurrence: 2, Type: FaultCrash}},
		{Injection: Injection{Server: "pm", Site: "pm.handle.entry", Occurrence: 3, Type: FaultCrash}, Correlated: true},
	}
	a := RunMultiWith(seep.PolicyEnhanced, 7, injs, IPCOptions{})
	b := RunMultiWith(seep.PolicyEnhanced, 7, injs, IPCOptions{})
	if a.Outcome != b.Outcome || a.Triggered != b.Triggered ||
		a.Recoveries != b.Recoveries || a.Quarantines != b.Quarantines {
		t.Fatalf("multi-fault run not deterministic:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestMultiCampaignShapes: a small multi-fault campaign under the
// enhanced policy classifies every run, and the plan generation is
// deterministic.
func TestMultiCampaignShapes(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MultiCampaignConfig{
		Policy: seep.PolicyEnhanced,
		Model:  FailStop,
		Faults: 2,
		Runs:   8,
		Seed:   42,
	}
	planA := PlanMultiCampaign(cfg, profile)
	planB := PlanMultiCampaign(cfg, profile)
	if len(planA) != 8 {
		t.Fatalf("planned %d runs, want 8", len(planA))
	}
	for i := range planA {
		if len(planA[i]) != 2 {
			t.Fatalf("run %d armed %d faults, want 2", i, len(planA[i]))
		}
		for j := range planA[i] {
			if planA[i][j] != planB[i][j] {
				t.Fatalf("plan not deterministic at run %d fault %d", i, j)
			}
		}
	}
	res, _ := RunMultiCampaign(cfg, profile)
	if res.Runs+res.Untriggered != 8 {
		t.Fatalf("runs %d + untriggered %d != 8", res.Runs, res.Untriggered)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != res.Runs {
		t.Fatalf("classified %d of %d runs", total, res.Runs)
	}
	if res.Counts[OutcomeCrash] > res.Runs/2 {
		t.Fatalf("multi-fault campaign mostly crashes under enhanced policy: %+v", res.Counts)
	}
}

// TestMultiFaultIPCConservation is the conservation property: every
// blocking request is resolved exactly once — a real reply, an ECRASH
// from error virtualization (including quarantined targets), or a
// controlled shutdown. A lost or duplicated reply would leave the suite
// runner blocked forever (run ends by cycle limit or deadlock) or crash
// it, and the run would classify as OutcomeCrash; over a spread of
// seeds and multi-fault plans, none may.
func TestMultiFaultIPCConservation(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{11, 23, 31} {
		plans := PlanMultiCampaign(MultiCampaignConfig{
			Policy: seep.PolicyEnhanced,
			Model:  FailStop,
			Faults: 3,
			Runs:   4,
			Seed:   seed,
		}, profile)
		for i, plan := range plans {
			rr := RunMultiWith(seep.PolicyEnhanced, seed+uint64(i)*31, plan, IPCOptions{})
			if rr.Outcome == OutcomeCrash {
				t.Fatalf("seed %d run %d: uncontrolled outcome (%s) — a request was lost or recovery aborted\nplan: %+v",
					seed, i, rr.Reason, plan)
			}
		}
	}
}
