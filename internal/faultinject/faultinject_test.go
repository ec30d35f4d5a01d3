package faultinject

import (
	"testing"

	"repro/internal/seep"
	"repro/internal/sim"
)

func TestProfileFindsCandidates(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) < 30 {
		t.Fatalf("profile found only %d sites", len(profile))
	}
	candidates := 0
	servers := make(map[string]bool)
	for _, sp := range profile {
		if sp.Total < sp.Boot {
			t.Fatalf("site %s/%s: total %d < boot %d", sp.Server, sp.Site, sp.Total, sp.Boot)
		}
		if sp.Candidate() {
			candidates++
			servers[sp.Server] = true
		}
	}
	if candidates < 25 {
		t.Fatalf("only %d candidate sites", candidates)
	}
	for _, want := range []string{"pm", "vm", "vfs", "ds", "rs"} {
		if !servers[want] {
			t.Errorf("no candidate sites in server %s", want)
		}
	}
}

func TestPickTypeDistribution(t *testing.T) {
	r := sim.NewRNG(1)
	if got := pickType(FailStop, r); got != FaultCrash {
		t.Fatalf("fail-stop model produced %v", got)
	}
	seen := make(map[FaultType]int)
	for i := 0; i < 2000; i++ {
		seen[pickType(FullEDFI, r)]++
	}
	for _, s := range faultRegistry {
		if s.Weights[FullEDFI] > 0 && seen[s.Type] == 0 {
			t.Errorf("EDFI mix never produced %v", s.Type)
		}
		if s.Weights[FullEDFI] == 0 && seen[s.Type] != 0 {
			t.Errorf("EDFI mix produced out-of-model type %v", s.Type)
		}
	}
	if seen[FaultCrash] <= seen[FaultHang] {
		t.Errorf("crash (%d) should dominate hang (%d)", seen[FaultCrash], seen[FaultHang])
	}
}

func TestRunOneCrashRecovered(t *testing.T) {
	rr := RunOne(seep.PolicyEnhanced, 1, Injection{
		Server: "ds", Site: "ds.put.applied", Occurrence: 5, Type: FaultCrash,
	})
	if !rr.Triggered {
		t.Fatal("fault never triggered")
	}
	// A DS put crash inside the window is recovered: the run survives
	// (pass or fail), never an uncontrolled crash.
	if rr.Outcome == OutcomeCrash {
		t.Fatalf("outcome = %v (%s), want survival", rr.Outcome, rr.Reason)
	}
}

func TestRunOneNoopPasses(t *testing.T) {
	rr := RunOne(seep.PolicyEnhanced, 1, Injection{
		Server: "pm", Site: "pm.getpid", Occurrence: 3, Type: FaultNoop,
	})
	if !rr.Triggered || rr.Outcome != OutcomePass {
		t.Fatalf("noop fault: triggered=%v outcome=%v", rr.Triggered, rr.Outcome)
	}
}

func TestRunOneUntriggered(t *testing.T) {
	rr := RunOne(seep.PolicyEnhanced, 1, Injection{
		Server: "pm", Site: "pm.getpid", Occurrence: 1_000_000, Type: FaultCrash,
	})
	if rr.Triggered {
		t.Fatal("impossible occurrence triggered")
	}
	if rr.Outcome != OutcomePass {
		t.Fatalf("clean run outcome = %v", rr.Outcome)
	}
}

func TestRunOneHangDetected(t *testing.T) {
	rr := RunOne(seep.PolicyEnhanced, 1, Injection{
		Server: "vfs", Site: "vfs.stat", Occurrence: 2, Type: FaultHang,
	})
	if !rr.Triggered {
		t.Fatal("hang never triggered")
	}
	// Heartbeat detection converts the hang to a fail-stop, which the
	// engine then handles like any crash: the system must not wedge
	// until the cycle limit.
	if rr.Outcome == OutcomeCrash && rr.Reason == "cycle limit exceeded" {
		t.Fatalf("hang was never detected: %v (%s)", rr.Outcome, rr.Reason)
	}
}

func TestSmallCampaignShapes(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Model: FailStop, Seed: 7, SamplesPerSite: 1, MaxRuns: 40}

	cfg.Policy = seep.PolicyEnhanced
	enhanced, _ := RunCampaign(cfg, profile)
	cfg.Policy = seep.PolicyStateless
	stateless, _ := RunCampaign(cfg, profile)

	if enhanced.Runs == 0 || stateless.Runs == 0 {
		t.Fatalf("campaigns ran nothing: %d/%d", enhanced.Runs, stateless.Runs)
	}
	// The central survivability claims, at small scale:
	// enhanced nearly eliminates uncontrolled crashes...
	if enhanced.Percent(OutcomeCrash) > 25 {
		t.Errorf("enhanced crash rate %.1f%% too high (counts %v)",
			enhanced.Percent(OutcomeCrash), enhanced.Counts)
	}
	// ...while the stateless baseline crashes far more often.
	if stateless.Percent(OutcomeCrash) <= enhanced.Percent(OutcomeCrash) {
		t.Errorf("stateless crash rate %.1f%% not above enhanced %.1f%%",
			stateless.Percent(OutcomeCrash), enhanced.Percent(OutcomeCrash))
	}
	// Enhanced's non-crash outcomes should be dominated by controlled
	// shutdowns plus survivals.
	survived := enhanced.Percent(OutcomePass) + enhanced.Percent(OutcomeFail) + enhanced.Percent(OutcomeShutdown)
	if survived < 75 {
		t.Errorf("enhanced safe outcomes only %.1f%% (counts %v)", survived, enhanced.Counts)
	}
	t.Logf("enhanced: %v, stateless: %v", enhanced.Counts, stateless.Counts)
}

func TestPlanCampaignThinningAndDeterminism(t *testing.T) {
	profile := []SiteProfile{
		{Server: "pm", Site: "a", Total: 100, Boot: 2},
		{Server: "pm", Site: "b", Total: 50, Boot: 0},
		{Server: "ds", Site: "c", Total: 3, Boot: 1},
		{Server: "ds", Site: "boot-only", Total: 5, Boot: 5}, // not a candidate
		{Server: "vm", Site: "never", Total: 0, Boot: 0},     // not a candidate
	}
	cfg := CampaignConfig{Model: FailStop, Seed: 3, SamplesPerSite: 4}
	plan := PlanCampaign(cfg, profile)
	// Candidates: a (4 samples), b (4), c (reach 2 -> 2 samples).
	if len(plan) != 10 {
		t.Fatalf("plan size = %d, want 10", len(plan))
	}
	for _, inj := range plan {
		if inj.Site == "boot-only" || inj.Site == "never" {
			t.Fatalf("non-candidate site planned: %+v", inj)
		}
		if inj.Occurrence < 1 {
			t.Fatalf("bad occurrence: %+v", inj)
		}
	}
	// Boot-time occurrences are excluded: site c has boot=1, so its
	// occurrences are 2 or 3.
	for _, inj := range plan {
		if inj.Site == "c" && inj.Occurrence < 2 {
			t.Fatalf("boot occurrence planned: %+v", inj)
		}
	}
	// Determinism.
	plan2 := PlanCampaign(cfg, profile)
	for i := range plan {
		if plan[i] != plan2[i] {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, plan[i], plan2[i])
		}
	}
	// Thinning caps the total.
	cfg.MaxRuns = 4
	thinned := PlanCampaign(cfg, profile)
	if len(thinned) != 4 {
		t.Fatalf("thinned plan = %d, want 4", len(thinned))
	}
}

func TestCampaignResultPercent(t *testing.T) {
	r := CampaignResult{Tally: Tally{Runs: 4, Counts: map[Outcome]int{OutcomePass: 1, OutcomeCrash: 3}}}
	if r.Percent(OutcomePass) != 25 || r.Percent(OutcomeCrash) != 75 {
		t.Fatalf("percents = %v/%v", r.Percent(OutcomePass), r.Percent(OutcomeCrash))
	}
	var empty CampaignResult
	if empty.Percent(OutcomePass) != 0 {
		t.Fatal("empty campaign percent not 0")
	}
}

func TestStringers(t *testing.T) {
	if FailStop.String() != "fail-stop" || FullEDFI.String() != "full-EDFI" {
		t.Fatal("model names wrong")
	}
	for _, ft := range []FaultType{FaultCrash, FaultHang, FaultCorrupt, FaultWrongErrno, FaultNoop} {
		if ft.String() == "" || ft.String()[0] == 'F' {
			t.Fatalf("fault type %d name = %q", ft, ft.String())
		}
	}
	for _, o := range []Outcome{OutcomePass, OutcomeFail, OutcomeShutdown, OutcomeCrash} {
		if o.String() == "" || o.String()[0] == 'O' {
			t.Fatalf("outcome %d name = %q", o, o.String())
		}
	}
}

func TestRunOneCorruptAndWrongErrno(t *testing.T) {
	// Fail-silent faults must never wedge the run: they complete (pass
	// or fail) or at worst crash — never hang to the cycle limit.
	for _, ft := range []FaultType{FaultCorrupt, FaultWrongErrno} {
		rr := RunOne(seep.PolicyEnhanced, 3, Injection{
			Server: "vfs", Site: "vfs.open.entry", Occurrence: 4, Type: ft,
		})
		if !rr.Triggered {
			t.Fatalf("%v never triggered", ft)
		}
		if rr.Outcome == OutcomeCrash && rr.Reason == "cycle limit exceeded" {
			t.Fatalf("%v wedged the system", ft)
		}
	}
}
