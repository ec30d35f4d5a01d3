package faultinject

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/boot"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/testsuite"
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

// TestRunMultiArmsLiveSitesOnly: execute arms the point hook at the sites
// of faults that can still fire at a point. A non-persistent fault that
// fired disarms its site unless another fault still waits there, and the
// hook detaches once no site is left; a persistent fault and a correlated
// fault that never armed (no recovery happened) keep theirs, and a
// during-recovery fault never arms one.
func TestRunMultiArmsLiveSitesOnly(t *testing.T) {
	crash := func(server, site string, occ int) MultiInjection {
		return MultiInjection{Injection: Injection{Server: server, Site: site, Occurrence: occ, Type: FaultCrash}}
	}
	noop := func(server, site string, occ int) MultiInjection {
		return MultiInjection{Injection: Injection{Server: server, Site: site, Occurrence: occ, Type: FaultNoop}}
	}
	persistent, correlated := noop("ds", "ds.put.applied", 1), crash("pm", "pm.handle.entry", 1)
	persistent.Persistent, correlated.Correlated = true, true
	inRecovery := MultiInjection{Injection: Injection{Occurrence: 1, Type: FaultCrash}, DuringRecovery: true}
	for _, tc := range []struct {
		name      string
		injs      []MultiInjection
		triggered int
		sites     []string // nil: detached
	}{
		{"fired", []MultiInjection{crash("ds", "ds.put.applied", 1)}, 1, nil},
		{"fired, and one in recovery", []MultiInjection{crash("ds", "ds.put.applied", 1), inRecovery}, 2, nil},
		{"persistent", []MultiInjection{persistent, crash("vfs", "vfs.read.entry", 1)}, 2, []string{"ds.put.applied"}},
		{"correlated, no recovery", []MultiInjection{noop("ds", "ds.put.applied", 1), correlated}, 1, []string{"pm.handle.entry"}},
		{"another pending at the site", []MultiInjection{noop("ds", "ds.put.applied", 1), noop("ds", "ds.put.applied", 1<<30)}, 1, []string{"ds.put.applied"}},
	} {
		spec := multiSpec(tc.injs, IPCOptions{})
		var report testsuite.Report
		sys := boot.Boot(suiteOptions(spec.class().config(seep.PolicyEnhanced, 42)), testsuite.RunnerInit(&report))
		res := execute(sys, &report, spec, 42, nil, nil)
		if res.Triggered != tc.triggered {
			t.Errorf("%s: %d faults triggered, want %d (%+v)", tc.name, res.Triggered, tc.triggered, res)
		}
		// The kernel keeps its arming to itself; read where the run left it.
		k := reflect.ValueOf(sys.Kernel()).Elem()
		attached := !k.FieldByName("pointHook").IsNil()
		var sites []string
		for v, i := k.FieldByName("pointSites"), 0; i < v.Len(); i++ {
			sites = append(sites, v.Index(i).String())
		}
		if attached != (tc.sites != nil) || !slices.Equal(sites, tc.sites) {
			t.Errorf("%s: run ends with the hook attached %v at %v, want %v", tc.name, attached, sites, tc.sites)
		}
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

// A three-fault run under background transport faults serves a good
// share of its requests as leaf steps (kernel.Stepper), its armed point
// hook and its transport plane notwithstanding: of the steps served and
// the switches made, the steps were 35.9 % at seed 42 when the floor was
// set (none when only a SendRec without a plane or a hook served them).
// The run is RunMultiWith's, on a machine the test keeps to read.
func TestMultiFaultRunServesLeafCalls(t *testing.T) {
	const floor = 0.30
	injs := []MultiInjection{
		{Injection: Injection{Server: "ds", Site: "ds.put.applied", Occurrence: 1, Type: FaultCrash}},
		{Injection: Injection{Server: "vfs", Site: "vfs.read.entry", Occurrence: 1, Type: FaultCorrupt}},
		{Injection: Injection{Server: "ds", Site: "ds.get", Occurrence: 2, Type: FaultHang}},
	}
	ipc := IPCOptions{Faults: kernel.IPCFaultConfig{DropBP: 50, DupBP: 50, DelayBP: 50, ReorderBP: 50, CorruptBP: 50}}
	spec := multiSpec(injs, ipc)
	var report testsuite.Report
	sys := boot.Boot(suiteOptions(spec.class().config(seep.PolicyEnhanced, 42)), testsuite.RunnerInit(&report))
	rr := execute(sys, &report, spec, 42, nil, nil)
	served, switches := sys.Kernel().LeafCalls()
	sys.Kernel().Release()
	if want := RunMultiWith(seep.PolicyEnhanced, 42, injs, ipc); !reflect.DeepEqual(rr, want) {
		t.Fatalf("the run differs from RunMultiWith's:\n%+v\n%+v", rr, want)
	}
	if rr.Triggered != len(injs) {
		t.Fatalf("triggered %d faults, want %d (%+v)", rr.Triggered, len(injs), rr)
	}
	if share := float64(served) / float64(served+switches); share < floor {
		t.Errorf("%d steps served beside %d switches (%.1f %%), want at least %.0f %%", served, switches, 100*share, 100*floor)
	}
}
