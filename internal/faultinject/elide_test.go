package faultinject

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/testsuite"
)

// Tail elision must be invisible in campaign results; the differential
// runner (differential_test.go) checks that every elided, rejoined and
// fully executed run equals its cold boot. These tests drive every
// elision fallback reason through its cold path, pin the per-run serving
// decisions to the stats, and drive the suffix table's publishing
// certificate gate by gate.

// noElidePlane pins a campaign to full execution: the elision oracle.
var noElidePlane = PlaneOptions{NoElide: true}

// executedInFull reports whether sv is a warm fork that executed to its
// end and was charged reason.
func executedInFull(sv Serving, reason string) bool {
	return sv.Plane == PlaneForked && sv.Fallback == reason
}

// elideTestPlan returns the standing elision campaign — the corpus row
// single-failstop, large enough that some runs elide, some mismatch, some
// never trigger — plus the row's oracle result.
func elideTestPlan(t *testing.T) (CampaignConfig, []SiteProfile, CampaignResult) {
	t.Helper()
	s := row(t, "single-failstop")
	return s.campaign(), s.plan(t).profile, s.reference(t, nil).agg.(CampaignResult)
}

// assertElisionAccounted checks the serving-split invariant: every
// warm-served run either elided its tail, was certified wedged, or is
// charged exactly one elision fallback reason — and the rejoined runs
// are a subset of the elided ones.
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
	if stats.Rejoined > stats.Elided {
		t.Errorf("%d rejoined runs exceed %d elided", stats.Rejoined, stats.Elided)
	}
}

// Pinning -noelide charges every warm run to noelide-pinned and elides
// nothing, with results unchanged — the oracle is plain full execution.
func TestElideFallbackPinned(t *testing.T) {
	cfg, profile, oracle := elideTestPlan(t)
	cfg.Plane = noElidePlane
	res, stats := RunCampaign(cfg, profile)
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

	// (e) The pin keeps the whole suffix table off, not just the splice:
	// the walk hashes nothing and publishes nothing, and no run records or
	// contributes a candidate.
	cfg, plan := rejoinPlan(t)
	cfg.Plane = noElidePlane
	runner := NewArmedRunner(cfg, plan)
	defer runner.Close()
	for i := 0; i < len(plan); i += 6 {
		if _, el := armedRun(t, runner, cfg.Seed+uint64(i)*7919, plan[i]); len(el.cands) != 0 {
			t.Fatalf("run %d recorded %d candidates under -noelide", i, len(el.cands))
		}
	}
	l := plainLadder(runner)
	l.serve(nil) // finish the walk: recordTail has had its chance
	if l.table != nil || len(l.cands) != 0 {
		t.Errorf("pinned ladder built a suffix table: %d entries, %d pending", len(l.table), len(l.cands))
	}
	if st := runner.Stats(); st.Elided != 0 || st.Rejoined != 0 {
		t.Errorf("pinned plan elided: %+v", st)
	}
}

// A walk cut at rung 0 never records its tail, so the suffix table
// never opens: runs whose faults fully recover reach the fingerprint
// gates but find no tail to splice.
func TestElideFallbackNoTail(t *testing.T) {
	cfg, profile, oracle := elideTestPlan(t)
	prev := buildLadder
	buildLadder = func(cfg core.Config, noElide bool) *ladder {
		l := newLadder(cfg, noElide)
		if l != nil {
			l.finish("test: walk cut at rung 0")
		}
		return l
	}
	defer func() { buildLadder = prev }()
	res, stats := RunCampaign(cfg, profile)
	if !reflect.DeepEqual(oracle, res) {
		t.Errorf("tail-less campaign diverged:\nwant: %+v\ngot:  %+v", oracle, res)
	}
	if stats.Elided != 0 {
		t.Errorf("campaign without a tail elided %d runs", stats.Elided)
	}
	if stats.ElisionFallbacks[ElideFallbackNoTail] == 0 {
		t.Errorf("no run charged to %s: %+v", ElideFallbackNoTail, stats.ElisionFallbacks)
	}
	if n := stats.ElisionFallbacks[ElideFallbackMismatch]; n != 0 {
		t.Errorf("%d runs charged %s against a table that never opened", n, ElideFallbackMismatch)
	}
	assertElisionAccounted(t, stats)
}

// firstCandidate returns the profile's first injectable site.
func firstCandidate(t *testing.T) SiteProfile {
	t.Helper()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range profile {
		if sp.Candidate() {
			return sp
		}
	}
	t.Fatal("profile has no candidate site")
	return SiteProfile{}
}

// A fault whose occurrence lies beyond the site's total count never
// fires: the run executes the whole suite warm with the elision gate
// blocked at every barrier, and is charged fault-untriggered.
func TestElideFallbackUntriggered(t *testing.T) {
	sp := firstCandidate(t)
	inj := Injection{Server: sp.Server, Site: sp.Site, Occurrence: sp.Total + 1000, Type: FaultCrash}
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := NewArmedRunner(cfg, []Injection{inj})
	defer runner.Close()
	warmRR, decision := runner.serve(99, inj)
	coldRR := RunOne(seep.PolicyEnhanced, 99, inj)
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("untriggered run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	if warmRR.Triggered {
		t.Error("never-firing fault reported triggered")
	}
	stats := runner.Stats()
	if stats.ElisionFallbacks[ElideFallbackUntriggered] != 1 {
		t.Errorf("run not charged to %s: %+v", ElideFallbackUntriggered, stats.ElisionFallbacks)
	}
	if !executedInFull(decision, ElideFallbackUntriggered) {
		t.Errorf("decision %q is not a full run charged %s", decision, ElideFallbackUntriggered)
	}
}

// A fault that fires and takes the machine down inside the test it fired
// in never reaches a barrier at which a gate could be consulted with the
// fault behind it: the run is charged ended-before-barrier, not the
// fault-untriggered of the barriers it passed before the trigger.
func TestElideFallbackEndedEarly(t *testing.T) {
	cfg, profile, _ := elideTestPlan(t)
	plan := PlanCampaign(cfg, profile)
	results, decisions, stats := servedPass(cfg, plan, 1)
	early := 0
	for i, rr := range results {
		switch {
		case executedInFull(decisions[i], ElideFallbackEndedEarly):
			early++
			if !rr.Triggered {
				t.Errorf("run %d charged %s without its fault firing", i, ElideFallbackEndedEarly)
			}
		case executedInFull(decisions[i], ElideFallbackUntriggered) && rr.Triggered:
			t.Errorf("run %d: fault fired yet charged %s", i, ElideFallbackUntriggered)
		}
	}
	if early == 0 || early != stats.ElisionFallbacks[ElideFallbackEndedEarly] {
		t.Errorf("%d ended-early decisions, stats say %d", early, stats.ElisionFallbacks[ElideFallbackEndedEarly])
	}

}

// Persistent faults re-fire after every restart, so the plan-wide
// readiness gate never opens: multi-fault runs carrying one execute in
// full and are charged fault-untriggered.
func TestElideFallbackPersistentNeverReady(t *testing.T) {
	deep := firstCandidate(t)
	plan := []MultiInjection{
		{Injection: Injection{Server: deep.Server, Site: deep.Site, Occurrence: deep.Boot + 1, Type: FaultCrash}},
		{Injection: Injection{Server: deep.Server, Site: deep.Site, Occurrence: 1, Type: FaultCrash}, Persistent: true},
	}
	cfg := MultiCampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := newMultiRunner(cfg, [][]MultiInjection{plan})
	defer runner.close()
	warmRR, decision := runner.run(7, multiSpec(plan, IPCOptions{}))
	coldRR := RunMultiWith(seep.PolicyEnhanced, 7, plan, IPCOptions{})
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("persistent-fault run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	stats := runner.Stats()
	if stats.Elided != 0 {
		t.Errorf("persistent-fault run elided: %+v", stats)
	}
	if stats.ElisionFallbacks[ElideFallbackUntriggered] != 1 {
		t.Errorf("run not charged to %s: %+v", ElideFallbackUntriggered, stats.ElisionFallbacks)
	}
	if !executedInFull(decision, ElideFallbackUntriggered) {
		t.Errorf("decision %q is not a full run charged %s", decision, ElideFallbackUntriggered)
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
	warmRR, decision := runner.run(7, multiSpec(plan, IPCOptions{}))
	coldRR := RunMultiWith(seep.PolicyEnhanced, 7, plan, IPCOptions{})
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("quarantined run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	stats := runner.Stats()
	if stats.Elided != 0 || stats.ElisionFallbacks[ElideFallbackResidue] != 1 {
		t.Errorf("run not charged to %s: elided=%d %+v",
			ElideFallbackResidue, stats.Elided, stats.ElisionFallbacks)
	}
	if !executedInFull(decision, ElideFallbackResidue) {
		t.Errorf("decision %q is not a full run charged %s", decision, ElideFallbackResidue)
	}
}

// Per-run serving decisions must agree exactly with the aggregated
// serving split: as many "elided:" decisions as Elided, one matching
// "full:<reason>" per elision fallback, one "cold:<reason>" per cold
// boot.
func TestElideServingDecisions(t *testing.T) {
	cfg, profile, _ := elideTestPlan(t)
	decisions := make(map[int]string)
	cfg.OnServe = func(index int, sv Serving) { decisions[index] = sv.String() }
	_, stats := RunCampaign(cfg, profile)
	plan := PlanCampaign(cfg, profile)
	if len(decisions) != len(plan) {
		t.Fatalf("recorded %d decisions for %d runs", len(decisions), len(plan))
	}
	elided, wedged, full, cold := 0, 0, map[string]int{}, map[string]int{}
	for i, d := range decisions {
		switch {
		case strings.HasPrefix(d, "rung:") && (strings.Contains(d, " elided:") || strings.Contains(d, " rejoined:")):
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
		_, stats := RunCampaign(cfg, profile)
		if stats.Total() != len(plan) {
			t.Errorf("workers=%d: stats cover %d runs, plan has %d", workers, stats.Total(), len(plan))
		}
		assertElisionAccounted(t, stats)
	}
}

// --- The suffix table: runs rejoining runs ---

// rejoinSites are four sites whose fail-stop runs mostly leave
// allocation-cursor residue — the killed test forked or opened less, so
// the rest of the suite runs one PID or descriptor over. Such a run never
// matches the pathfinder again but matches the previous run whose fault
// killed the same test the same way.
var rejoinSites = map[string]bool{
	"ds.put.applied":    true,
	"pm.spawn.resolved": true,
	"vfs.open.entry":    true,
	"vfs.stat":          true,
}

// rejoinPlan is osirisbench's 40-per-site stratified fail-stop plan cut
// down to rejoinSites: dense enough that runs land on each other's
// states.
func rejoinPlan(t *testing.T) (CampaignConfig, []Injection) {
	t.Helper()
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	return cfg, stratifiedPlan(rejoinProfile(t), 40, cfg.Seed)
}

// rejoinProfile is the seed-42 profile cut down to rejoinSites.
func rejoinProfile(t *testing.T) []SiteProfile {
	t.Helper()
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	var sites []SiteProfile
	for _, sp := range profile {
		if rejoinSites[sp.Site] {
			sites = append(sites, sp)
		}
	}
	return sites
}

// armedRun serves one single-fault run the way campaignRunner.run does,
// keeping the run's elider in view.
func armedRun(t *testing.T, a *ArmedRunner, seed uint64, inj Injection) (RunResult, *elider) {
	t.Helper()
	spec := singleSpec(inj, a.ipc)
	class := spec.class()
	l, reason := a.r.plane(class)
	if l == nil {
		t.Fatalf("%+v: no ladder: %s", inj, reason)
	}
	idx, rg, snap, ok := l.serve(spec.faults)
	if !ok {
		t.Fatalf("%+v: occurrence within boot", inj)
	}
	var report testsuite.Report
	sys, err := forkSnapshot(snap, forkParams(seed, class.ipc), testsuite.RunnerResumeFrom(&report, rg.prefix))
	if err != nil {
		t.Fatal(err)
	}
	el := &elider{l: l, sv: Serving{Plane: PlaneForked, Rung: idx}}
	res := execute(sys, &report, spec, seed, rg.counts, el)
	a.r.mu.Lock()
	a.r.stats.add(el.sv)
	a.r.mu.Unlock()
	return res.single(inj), el
}

// plainLadder returns the runner's ladder for runs that arm no transport
// fault.
func plainLadder(a *ArmedRunner) *ladder {
	l, _ := a.r.plane(planeClass{kind: kindSingle, ipc: a.ipc.normalized(false)})
	return l
}

// (c) A run need not hit at its first lookup: it may miss at one barrier
// (keeping a candidate it will never publish), hit a later one, and the
// spliced tally still equals full execution. And what a run publishes is
// exactly what the next run finds: every candidate of a run that executed
// to a clean completed end is in the table afterwards.
func TestElideLateHitAndPublication(t *testing.T) {
	cfg, plan := rejoinPlan(t)
	runner := NewArmedRunner(cfg, plan)
	defer runner.Close()
	l := plainLadder(runner)
	late, published := 0, 0
	for i, inj := range plan {
		seed := cfg.Seed + uint64(i)*7919
		rr, el := armedRun(t, runner, seed, inj)
		spliced := el.sv.Plane == PlaneElided || el.sv.Plane == PlaneRejoined
		if spliced && el.attempts > 1 {
			late++
			if cold := RunOne(cfg.Policy, seed, inj); !reflect.DeepEqual(cold, rr) {
				t.Errorf("run %d spliced at lookup %d (%s) differs from cold RunOne:\ncold: %+v\nwarm: %+v",
					i, el.attempts, el.sv, cold, rr)
			}
		}
		if !spliced && rr.Consistent && (rr.Outcome == OutcomePass || rr.Outcome == OutcomeFail) {
			for _, c := range el.cands {
				rec, _, ok := l.lookup(c.key)
				if !ok {
					t.Fatalf("run %d: candidate at barrier %d was not published", i, c.key.barrier)
				}
				if added := rec.end.report.Failed - int(rec.failed); added != rr.TestsFailed-c.prefix.Failed {
					t.Errorf("run %d: entry at barrier %d records %d failures, the run added %d",
						i, c.key.barrier, added, rr.TestsFailed-c.prefix.Failed)
				}
				published++
			}
		}
	}
	if late == 0 {
		t.Error("no run spliced after a missed lookup")
	}
	if published == 0 {
		t.Error("no run published a candidate")
	}
}

// tableLadder returns a walked ladder with its suffix table open, plus a
// candidate no entry exists for, stamped as a run that drew no
// randomness and ran no recovery since would be.
func tableLadder(t *testing.T) (*ladder, candidate, testsuite.Report, suffixStamp) {
	t.Helper()
	l := newLadder(planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, 42), false)
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	t.Cleanup(l.Close)
	if _, open, _ := l.lookup(suffixKey{}); !open {
		t.Fatal("fault-free walk did not open the suffix table")
	}
	at := suffixStamp{rng: 1, ipcRNG: 2, ipcHas: true, recoveries: 1}
	prefix := testsuite.Report{Ran: 10, Passed: 9, Failed: 1, FailedNames: []string{"a"}}
	end := testsuite.Report{Ran: 96, Passed: 94, Failed: 2, FailedNames: []string{"a", "b"}}
	return l, candidate{key: suffixKey{barrier: 10, fp: 0xfeed}, prefix: prefix, stamp: at}, end, at
}

// (b) The publishing certificate, gate by gate, driven on the publish
// step itself: no suffix a warm run executes today draws randomness or
// ends with a violation no earlier pass saw, so real runs cannot reach
// these refusals. A candidate that satisfies the certificate is kept —
// with exactly the suffix deltas — and each single departure from it is
// not.
func TestElidePublishCertificate(t *testing.T) {
	completed := kernel.Result{Outcome: kernel.OutcomeCompleted, Reason: "done"}
	l, cand, end, at := tableLadder(t)
	l.publishRun([]candidate{cand}, &end, completed, true, at)
	rec, _, ok := l.lookup(cand.key)
	want := suffixRecord{ran: 10, passed: 9, failed: 1, names: 1,
		end: &suffixEnd{report: end, outcome: kernel.OutcomeCompleted, reason: "done", rejoined: true}}
	if !ok || !reflect.DeepEqual(rec, want) {
		t.Fatalf("certified candidate published as %+v (found %v), want %+v", rec, ok, want)
	}
	// First writer wins.
	other := end
	other.Passed--
	l.publishRun([]candidate{cand}, &other, completed, true, at)
	if rec, _, _ := l.lookup(cand.key); !reflect.DeepEqual(rec, want) {
		t.Errorf("second writer replaced the entry: %+v", rec)
	}

	refusals := []struct {
		name  string
		res   kernel.Result
		clean bool
		move  func(*suffixStamp)
	}{
		{"shutdown", kernel.Result{Outcome: kernel.OutcomeShutdown}, true, nil},
		{"hang", kernel.Result{Outcome: kernel.OutcomeHang}, true, nil},
		{"audit violation", completed, false, nil},
		{"machine RNG drawn", completed, true, func(s *suffixStamp) { s.rng++ }},
		{"IPC RNG drawn", completed, true, func(s *suffixStamp) { s.ipcRNG++ }},
		{"IPC plane appeared", completed, true, func(s *suffixStamp) { s.ipcHas = false }},
		{"recovery ran", completed, true, func(s *suffixStamp) { s.recoveries++ }},
	}
	for i, r := range refusals {
		c := cand
		c.key.fp += uint64(i) + 1
		endStamp := at
		if r.move != nil {
			r.move(&endStamp)
		}
		size := len(l.table)
		l.publishRun([]candidate{c}, &end, r.res, r.clean, endStamp)
		if _, _, ok := l.lookup(c.key); ok || len(l.table) != size {
			t.Errorf("%s: candidate was published", r.name)
		}
	}
}

// (b) A recording run that ends in a crash publishes nothing, and stays
// equal to its cold run. Fail-stop plans have no such run (a fail-stop
// fault either takes the machine down at once or not at all); a silent
// corruption that lets the suite pass a barrier and crashes it later
// does.
func TestElidePublishRefusesCrashedRun(t *testing.T) {
	inj := Injection{Server: "pm", Site: "pm.exit.entry", Occurrence: 121, Type: FaultCorrupt}
	seed := uint64(42 + 135*7919)
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FullEDFI, Seed: 42}
	runner := NewArmedRunner(cfg, []Injection{inj})
	defer runner.Close()
	rr, el := armedRun(t, runner, seed, inj)
	if len(el.cands) == 0 || rr.Outcome != OutcomeCrash {
		t.Fatalf("run no longer records and then crashes (%d candidates, outcome %v): pick another", len(el.cands), rr.Outcome)
	}
	if cold := RunOne(cfg.Policy, seed, inj); !reflect.DeepEqual(cold, rr) {
		t.Errorf("recording run differs from cold RunOne:\ncold: %+v\nwarm: %+v", cold, rr)
	}
	l := plainLadder(runner)
	for _, c := range el.cands {
		if _, _, ok := l.lookup(c.key); ok {
			t.Errorf("crashed run published its candidate at barrier %d", c.key.barrier)
		}
	}
}
