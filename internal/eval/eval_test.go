package eval

import (
	"testing"

	"repro/internal/faultinject"
)

func TestTable1Shape(t *testing.T) {
	tab := quick(t, "1").(Table1)
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// Central claims of Table I: enhanced coverage is at least the
	// pessimistic coverage for every server, strictly better for DS
	// (early read-only SEEP), and the weighted means sit in a sensible
	// band with enhanced above pessimistic.
	for _, r := range tab.Rows {
		if r.Enhanced+0.5 < r.Pessimistic {
			t.Errorf("%s: enhanced %.1f%% below pessimistic %.1f%%", r.Server, r.Enhanced, r.Pessimistic)
		}
		if r.Server == "ds" && r.Enhanced < r.Pessimistic+15 {
			t.Errorf("ds gap too small: %.1f%% -> %.1f%%", r.Pessimistic, r.Enhanced)
		}
	}
	if tab.WeightedEnhanced <= tab.WeightedPessimistic {
		t.Errorf("weighted enhanced %.1f%% not above pessimistic %.1f%%",
			tab.WeightedEnhanced, tab.WeightedPessimistic)
	}
	if tab.WeightedEnhanced >= 99 {
		t.Errorf("weighted enhanced %.1f%% suspiciously close to 100%%", tab.WeightedEnhanced)
	}
}

func TestTable2Shape(t *testing.T) {
	tab := quick(t, "2").(SurvivabilityTable)
	t.Log("\n" + tab.Render())
	byPolicy := make(map[string]faultinject.CampaignResult)
	for _, r := range tab.Rows {
		byPolicy[r.Policy.String()] = r
	}
	enh := byPolicy["enhanced"]
	pess := byPolicy["pessimistic"]
	stateless := byPolicy["stateless"]
	naive := byPolicy["naive"]

	// Window policies nearly eliminate uncontrolled crashes...
	if enh.Percent(faultinject.OutcomeCrash) > 15 {
		t.Errorf("enhanced crash %.1f%% too high", enh.Percent(faultinject.OutcomeCrash))
	}
	if pess.Percent(faultinject.OutcomeCrash) > 15 {
		t.Errorf("pessimistic crash %.1f%% too high", pess.Percent(faultinject.OutcomeCrash))
	}
	// ...while the baselines crash far more often.
	if stateless.Percent(faultinject.OutcomeCrash) < enh.Percent(faultinject.OutcomeCrash)+10 {
		t.Errorf("stateless crash %.1f%% not clearly above enhanced %.1f%%",
			stateless.Percent(faultinject.OutcomeCrash), enh.Percent(faultinject.OutcomeCrash))
	}
	// Baselines never perform controlled shutdowns.
	if stateless.Percent(faultinject.OutcomeShutdown) != 0 || naive.Percent(faultinject.OutcomeShutdown) != 0 {
		t.Error("baseline policies reported controlled shutdowns")
	}
	// Enhanced survivability (pass+fail) beats pessimistic.
	survE := enh.Percent(faultinject.OutcomePass) + enh.Percent(faultinject.OutcomeFail)
	survP := pess.Percent(faultinject.OutcomePass) + pess.Percent(faultinject.OutcomeFail)
	if survE < survP {
		t.Errorf("enhanced survivability %.1f%% below pessimistic %.1f%%", survE, survP)
	}
}

func TestTable4Shape(t *testing.T) {
	tab := quick(t, "4").(Table4)
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var dhry, syscall PerfRow
	for _, r := range tab.Rows {
		if r.Slowdown <= 0 {
			t.Errorf("%s has no slowdown (scores %v/%v)", r.Name, r.Monolithic, r.OSIRIS)
		}
		switch r.Name {
		case "dhry2reg":
			dhry = r
		case "syscall":
			syscall = r
		}
	}
	// The microkernel pays for IPC: syscall-heavy tests suffer most,
	// compute-bound tests are unaffected.
	if syscall.Slowdown < 2 {
		t.Errorf("syscall slowdown %.2f, want >= 2", syscall.Slowdown)
	}
	if dhry.Slowdown > 1.3 {
		t.Errorf("dhry2reg slowdown %.2f, want ~1", dhry.Slowdown)
	}
	if tab.GeomeanSlowdown < 1.3 {
		t.Errorf("geomean slowdown %.2f, want noticeably above 1", tab.GeomeanSlowdown)
	}
}

func TestTable5Shape(t *testing.T) {
	tab := quick(t, "5").(Table5)
	t.Log("\n" + tab.Render())
	// The optimisation claim: the unoptimized build is clearly worse
	// than both optimized builds; compute benches are unaffected.
	if tab.GeoUnoptimized < tab.GeoEnhanced+0.02 {
		t.Errorf("unoptimized geomean %.3f not clearly above enhanced %.3f",
			tab.GeoUnoptimized, tab.GeoEnhanced)
	}
	if tab.GeoEnhanced > 1.15 {
		t.Errorf("enhanced geomean %.3f too high (paper ~1.05)", tab.GeoEnhanced)
	}
	if tab.GeoPessimistic > tab.GeoEnhanced+0.01 {
		t.Errorf("pessimistic %.3f should not exceed enhanced %.3f (shorter windows)",
			tab.GeoPessimistic, tab.GeoEnhanced)
	}
	for _, r := range tab.Rows {
		if r.Name == "dhry2reg" && r.Unoptimized > 1.05 {
			t.Errorf("dhry2reg unoptimized %.3f, want ~1 (no server time)", r.Unoptimized)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	tab := quick(t, "6").(Table6)
	t.Log("\n" + tab.Render())
	var vm MemoryRow
	for _, r := range tab.Rows {
		if r.Server == "vm" {
			vm = r
		}
		if r.Clone == 0 {
			t.Errorf("%s: clone bytes zero", r.Server)
		}
	}
	// VM dominates the memory overhead (frame table), as in the paper.
	if vm.Sum*2 < tab.Total {
		t.Errorf("vm overhead %d not dominant of total %d", vm.Sum, tab.Total)
	}
}

func TestFigure3Shape(t *testing.T) {
	sc := QuickScale()
	fig := RunFigure3(sc, []uint64{60_000, 3_200_000})
	t.Log("\n" + fig.Render())
	// PM-dependent benchmarks degrade under high-frequency faults;
	// compute benchmarks do not.
	spawn := fig.Series["spawn"]
	dhry := fig.Series["dhry2reg"]
	if len(spawn) != 3 || len(dhry) != 3 {
		t.Fatalf("series lengths: spawn %d dhry %d", len(spawn), len(dhry))
	}
	if spawn[1].Score <= 0 {
		t.Fatal("spawn did not survive fault inflow")
	}
	if spawn[1].Score >= spawn[0].Score*0.95 {
		t.Errorf("spawn under heavy inflow %.1f not below fault-free %.1f",
			spawn[1].Score, spawn[0].Score)
	}
	if dhry[1].Score < dhry[0].Score*0.9 {
		t.Errorf("dhry2reg degraded under PM faults: %.1f vs %.1f", dhry[1].Score, dhry[0].Score)
	}
	// Degradation shrinks as the interval grows.
	if spawn[2].Score < spawn[1].Score {
		t.Errorf("spawn at long interval %.1f below short interval %.1f", spawn[2].Score, spawn[1].Score)
	}
}

func TestAblationCheckpointing(t *testing.T) {
	a := quick(t, "ablation").(Ablation)
	t.Log("\n" + a.Render())
	// The paper's rationale: at per-request checkpoint frequency, the
	// undo log must beat full-state copies decisively.
	if a.GeoFullCopy < a.GeoUndoLog*1.05 {
		t.Errorf("full copy geomean %.3f not clearly above undo log %.3f",
			a.GeoFullCopy, a.GeoUndoLog)
	}
	// The gap must be driven by state-heavy components: the VM/VFS
	// paths (spawn, file I/O) pay for copying their large sections per
	// request. For PM's tiny state (syscall) full copy may even win —
	// the undo log's advantage is a function of state size, exactly the
	// trade-off §IV-C describes.
	for _, r := range a.Rows {
		if (r.Name == "spawn" || r.Name == "fstime") && r.FullCopy < r.UndoLog*1.2 {
			t.Errorf("%s: full copy %.3f not clearly above undo log %.3f", r.Name, r.FullCopy, r.UndoLog)
		}
	}
}

// TestMultiFaultTableShape: the cascade table runs all campaigns and
// the sequencer keeps uncontrolled crashes rare even with several
// faults per boot.
func TestMultiFaultTableShape(t *testing.T) {
	tab := quick(t, "mf").(MultiFaultTable)
	t.Logf("\n%s", tab.Render())
	if len(tab.Rows) != len(multiFaultPolicies)*len(multiFaultCounts) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(multiFaultPolicies)*len(multiFaultCounts))
	}
	for _, r := range tab.Rows {
		if r.Runs == 0 {
			t.Fatalf("row %v/%d classified no runs", r.Policy, r.Faults)
		}
		total := 0
		for _, n := range r.Counts {
			total += n
		}
		if total != r.Runs {
			t.Fatalf("row %v/%d classified %d of %d runs", r.Policy, r.Faults, total, r.Runs)
		}
	}
}
