package faultinject

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/seep"
)

// Tail elision must be invisible in campaign results: every aggregate
// is bit-identical to -noelide full execution for any worker count, and
// the serving split accounts for every warm run exhaustively. These
// tests assert that equivalence, drive every elision fallback reason
// through its cold path, and pin the per-run serving decisions to the
// stats. All names start with TestElide so CI can select the suite
// with -run Elide.

// withNoElide runs fn with elision pinned on or off, restoring the
// previous process default afterwards.
func withNoElide(pinned bool, fn func()) {
	prev := SetNoElideDefault(pinned)
	defer SetNoElideDefault(prev)
	fn()
}

// elideTestPlan returns the standing elision campaign — large enough
// that some runs elide, some mismatch, some never trigger — plus its
// pinned full-execution oracle result.
func elideTestPlan(t *testing.T) (CampaignConfig, []SiteProfile, CampaignResult) {
	t.Helper()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          FailStop,
		Seed:           42,
		SamplesPerSite: 1,
		MaxRuns:        24,
	}
	var oracle CampaignResult
	withNoElide(true, func() { oracle = RunCampaign(cfg, profile) })
	return cfg, profile, oracle
}

// assertElisionAccounted checks the serving-split invariant: every
// warm-served run either elided its tail or is charged exactly one
// elision fallback reason.
func assertElisionAccounted(t *testing.T, stats PlaneStats) {
	t.Helper()
	fallbacks := 0
	for _, n := range stats.ElisionFallbacks {
		fallbacks += n
	}
	if warm := stats.LadderForks + stats.BootForks; stats.Elided+stats.Wedged+fallbacks != warm {
		t.Errorf("elision split leaks runs: %d elided + %d wedged + %d fallbacks != %d warm (%+v)",
			stats.Elided, stats.Wedged, fallbacks, warm, stats.ElisionFallbacks)
	}
}

// Elision-on campaign results must be bit-identical to pinned full
// execution at every worker count, while actually eliding runs — and
// the campaign is rich enough to drive the untriggered, mismatch and
// residue fallbacks through their cold paths too.
func TestElideEquivalence(t *testing.T) {
	cfg, profile, oracle := elideTestPlan(t)
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		res, stats := RunCampaignWithStats(cfg, profile)
		if !reflect.DeepEqual(oracle, res) {
			t.Errorf("workers=%d: campaign diverged from -noelide oracle:\nfull:   %+v\nelided: %+v",
				workers, oracle, res)
		}
		if stats.Elided == 0 {
			t.Errorf("workers=%d: no run elided its tail: %+v", workers, stats)
		}
		for _, reason := range []string{ElideFallbackUntriggered, ElideFallbackMismatch} {
			if stats.ElisionFallbacks[reason] == 0 {
				t.Errorf("workers=%d: campaign never exercised fallback %q: %+v",
					workers, reason, stats.ElisionFallbacks)
			}
		}
		assertElisionAccounted(t, stats)
	}
}

// Multi-fault campaigns elide under the stricter plan-wide gate (every
// non-recovery fault triggered, no persistent fault) and stay
// bit-identical to full execution.
func TestElideEquivalenceMulti(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MultiCampaignConfig{
		Policy: seep.PolicyEnhanced,
		Model:  FailStop,
		Faults: 2,
		Runs:   12,
		Seed:   42,
	}
	var oracle MultiCampaignResult
	withNoElide(true, func() { oracle = RunMultiCampaign(cfg, profile) })
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, stats := RunMultiCampaignWithStats(cfg, profile)
		if !reflect.DeepEqual(oracle, res) {
			t.Errorf("workers=%d: multi campaign diverged from -noelide oracle:\nfull:   %+v\nelided: %+v",
				workers, oracle, res)
		}
		assertElisionAccounted(t, stats)
	}
}

// Pinning -noelide charges every warm run to noelide-pinned and elides
// nothing, with results unchanged — the oracle is plain full execution.
func TestElideFallbackPinned(t *testing.T) {
	cfg, profile, oracle := elideTestPlan(t)
	var res CampaignResult
	var stats PlaneStats
	withNoElide(true, func() { res, stats = RunCampaignWithStats(cfg, profile) })
	if !reflect.DeepEqual(oracle, res) {
		t.Errorf("pinned campaign diverged:\nwant: %+v\ngot:  %+v", oracle, res)
	}
	if stats.Elided != 0 {
		t.Errorf("pinned campaign elided %d runs", stats.Elided)
	}
	warm := stats.LadderForks + stats.BootForks
	if warm == 0 || stats.ElisionFallbacks[ElideFallbackPinned] != warm {
		t.Errorf("warm runs not charged to %s: %+v", ElideFallbackPinned, stats)
	}
	assertElisionAccounted(t, stats)
}

// A negative cache budget tears the pathfinder down at rung 0, so no
// walk tail is ever recorded: runs whose faults fully recover reach the
// fingerprint gates but find no tail to splice.
func TestElideFallbackNoTail(t *testing.T) {
	cfg, profile, oracle := elideTestPlan(t)
	var res CampaignResult
	var stats PlaneStats
	withSnapCache(-1, func() { res, stats = RunCampaignWithStats(cfg, profile) })
	if !reflect.DeepEqual(oracle, res) {
		t.Errorf("tail-less campaign diverged:\nwant: %+v\ngot:  %+v", oracle, res)
	}
	if stats.Elided != 0 {
		t.Errorf("campaign without a tail elided %d runs", stats.Elided)
	}
	if stats.ElisionFallbacks[ElideFallbackNoTail] == 0 {
		t.Errorf("no run charged to %s: %+v", ElideFallbackNoTail, stats.ElisionFallbacks)
	}
	assertElisionAccounted(t, stats)
}

// A fault whose occurrence lies beyond the site's total count never
// fires: the run executes the whole suite warm with the elision gate
// blocked at every barrier, and is charged fault-untriggered.
func TestElideFallbackUntriggered(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	var deep *SiteProfile
	for i := range profile {
		if profile[i].Candidate() {
			deep = &profile[i]
			break
		}
	}
	if deep == nil {
		t.Fatal("profile has no candidate site")
	}
	inj := Injection{
		Server:     deep.Server,
		Site:       deep.Site,
		Occurrence: deep.Total + 1000,
		Type:       FaultCrash,
	}
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := newSingleRunner(cfg, []Injection{inj})
	defer runner.close()
	warmRR, decision := runner.runOne(99, inj)
	coldRR := RunOne(seep.PolicyEnhanced, 99, inj)
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("untriggered run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	stats := runner.stats.snapshot()
	if stats.ElisionFallbacks[ElideFallbackUntriggered] != 1 {
		t.Errorf("run not charged to %s: %+v", ElideFallbackUntriggered, stats.ElisionFallbacks)
	}
	if want := ServingFull(ElideFallbackUntriggered); !strings.HasSuffix(decision, want) {
		t.Errorf("decision %q does not end in %q", decision, want)
	}
}

// Persistent faults re-fire after every restart, so the plan-wide
// readiness gate never opens: multi-fault runs carrying one execute in
// full and are charged fault-untriggered.
func TestElideFallbackPersistentNeverReady(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	var deep *SiteProfile
	for i := range profile {
		if profile[i].Candidate() {
			deep = &profile[i]
			break
		}
	}
	if deep == nil {
		t.Fatal("profile has no candidate site")
	}
	plan := []MultiInjection{
		{Injection: Injection{Server: deep.Server, Site: deep.Site, Occurrence: deep.Boot + 1, Type: FaultCrash}},
		{Injection: Injection{Server: deep.Server, Site: deep.Site, Occurrence: 1, Type: FaultCrash}, Persistent: true},
	}
	cfg := MultiCampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := newMultiRunner(cfg, [][]MultiInjection{plan})
	defer runner.close()
	warmRR, decision := runner.runMulti(7, plan)
	coldRR := RunMultiWith(seep.PolicyEnhanced, 7, plan, IPCOptions{})
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("persistent-fault run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	stats := runner.stats.snapshot()
	if stats.Elided != 0 {
		t.Errorf("persistent-fault run elided: %+v", stats)
	}
	if stats.ElisionFallbacks[ElideFallbackUntriggered] != 1 {
		t.Errorf("run not charged to %s: %+v", ElideFallbackUntriggered, stats.ElisionFallbacks)
	}
	if want := ServingFull(ElideFallbackUntriggered); !strings.HasSuffix(decision, want) {
		t.Errorf("decision %q does not end in %q", decision, want)
	}
}

// recoveryStormPlan is one plain crash at the site's first post-boot
// execution plus three crashes of the recovery path itself: the restart
// budget runs out and the sequencer quarantines the component.
func recoveryStormPlan(t *testing.T, site string) []MultiInjection {
	t.Helper()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range profile {
		if !sp.Candidate() || sp.Site != site {
			continue
		}
		plan := []MultiInjection{
			{Injection: Injection{Server: sp.Server, Site: sp.Site, Occurrence: sp.Boot + 1, Type: FaultCrash}},
		}
		for j := 0; j < 3; j++ {
			plan = append(plan, MultiInjection{
				Injection:      Injection{Server: sp.Server, Site: sp.Site, Occurrence: j + 1, Type: FaultCrash},
				DuringRecovery: true,
			})
		}
		return plan
	}
	t.Fatalf("profile has no %s candidate", site)
	return nil
}

// A crash whose recovery is itself crashed repeatedly exhausts the
// component's restart budget and quarantines it. Quarantine is
// permanent fault residue: the machine is never elision-quiescent
// again, so the run executes in full and is charged state-residue —
// while staying bit-identical to its cold boot. (The during-recovery
// faults are exempt from the readiness gate, so residue — not
// fault-untriggered — is the blocker this plan pins. The victim is PM at
// exec entry: the suite survives a quarantined PM and completes
// degraded. A quarantined DS instead wedges the suite to the cycle
// limit, which is charged wedge-unproven — see
// TestWedgeRefusesQuarantine.)
func TestElideFallbackResidue(t *testing.T) {
	plan := recoveryStormPlan(t, "pm.exec.entry")
	cfg := MultiCampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := newMultiRunner(cfg, [][]MultiInjection{plan})
	defer runner.close()
	warmRR, decision := runner.runMulti(7, plan)
	coldRR := RunMultiWith(seep.PolicyEnhanced, 7, plan, IPCOptions{})
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("quarantined run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	stats := runner.stats.snapshot()
	if stats.Elided != 0 || stats.ElisionFallbacks[ElideFallbackResidue] != 1 {
		t.Errorf("run not charged to %s: elided=%d %+v",
			ElideFallbackResidue, stats.Elided, stats.ElisionFallbacks)
	}
	if want := ServingFull(ElideFallbackResidue); !strings.HasSuffix(decision, want) {
		t.Errorf("decision %q does not end in %q", decision, want)
	}
}

// Per-run serving decisions must agree exactly with the aggregated
// serving split: as many "elided:" decisions as Elided, one matching
// "full:<reason>" per elision fallback, one "cold:<reason>" per cold
// boot.
func TestElideServingDecisions(t *testing.T) {
	cfg, profile, _ := elideTestPlan(t)
	decisions := make(map[int]string)
	cfg.OnServe = func(index int, decision string) { decisions[index] = decision }
	_, stats := RunCampaignWithStats(cfg, profile)
	plan := PlanCampaign(cfg, profile)
	if len(decisions) != len(plan) {
		t.Fatalf("recorded %d decisions for %d runs", len(decisions), len(plan))
	}
	elided, wedged, full, cold := 0, 0, map[string]int{}, map[string]int{}
	for i, d := range decisions {
		switch {
		case strings.HasPrefix(d, "rung:") && strings.Contains(d, " elided:"):
			elided++
		case strings.HasPrefix(d, "rung:") && strings.Contains(d, " wedged:"):
			wedged++
		case strings.HasPrefix(d, "rung:") && strings.Contains(d, " full:"):
			full[d[strings.Index(d, " full:")+len(" full:"):]]++
		case strings.HasPrefix(d, "cold:"):
			cold[d[len("cold:"):]]++
		default:
			t.Errorf("run %d: unparseable serving decision %q", i, d)
		}
	}
	if elided != stats.Elided {
		t.Errorf("%d elided decisions, stats say %d", elided, stats.Elided)
	}
	if wedged != stats.Wedged {
		t.Errorf("%d wedged decisions, stats say %d", wedged, stats.Wedged)
	}
	if !reflect.DeepEqual(full, mapOrEmpty(stats.ElisionFallbacks)) {
		t.Errorf("full-execution decisions %v != stats %v", full, stats.ElisionFallbacks)
	}
	if !reflect.DeepEqual(cold, mapOrEmpty(stats.Fallbacks)) {
		t.Errorf("cold decisions %v != stats %v", cold, stats.Fallbacks)
	}
}

func mapOrEmpty(m map[string]int) map[string]int {
	if m == nil {
		return map[string]int{}
	}
	return m
}

// PlaneStats accumulation must stay exhaustive under concurrent
// campaign workers: split totals sum to the run count and the elision
// split covers every warm run, with all increments race-clean (this
// test is part of the -race CI job).
func TestElidePlaneStatsConcurrent(t *testing.T) {
	cfg, profile, _ := elideTestPlan(t)
	plan := PlanCampaign(cfg, profile)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		_, stats := RunCampaignWithStats(cfg, profile)
		if stats.Total() != len(plan) {
			t.Errorf("workers=%d: stats cover %d runs, plan has %d", workers, stats.Total(), len(plan))
		}
		assertElisionAccounted(t, stats)
	}
}
