package faultinject

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/usr"
)

// The snapshot ladder rides on one invariant beyond PR 7's boot-barrier
// fork: the fault-free suite trace — per-site fault-point counts and
// suite tallies at every program boundary — is seed-independent. These
// tests assert that property directly and drive every fallback reason
// through its path. All names start with TestLadder so CI can select the
// suite with -run Ladder.

// Per-rung fault-point counts and suite tallies must not depend on the
// pathfinder's seed: this is the invariant that makes forking a rung
// captured at one seed bit-identical to a cold boot at another.
func TestLadderRungCountsSeedIndependent(t *testing.T) {
	type walk struct {
		seed  uint64
		rungs []rung
	}
	var walks []walk
	for _, seed := range []uint64{7, 42, 1000007} {
		l := newLadder(planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, seed), false)
		if l == nil {
			t.Fatalf("seed %d: pathfinder failed to reach the boot barrier", seed)
		}
		l.serve(nil) // drive the walk to suite completion
		l.Close()
		walks = append(walks, walk{seed, l.rungs})
	}
	ref := walks[0]
	if len(ref.rungs) < 10 {
		t.Fatalf("walk recorded only %d rungs; suite should yield many more", len(ref.rungs))
	}
	for _, w := range walks[1:] {
		if len(w.rungs) != len(ref.rungs) {
			t.Fatalf("seed %d: %d rungs, seed %d: %d rungs",
				ref.seed, len(ref.rungs), w.seed, len(w.rungs))
		}
		for i := range ref.rungs {
			if !reflect.DeepEqual(ref.rungs[i].counts, w.rungs[i].counts) {
				t.Errorf("rung %d: site counts differ between seeds %d and %d",
					i, ref.seed, w.seed)
			}
			if !reflect.DeepEqual(ref.rungs[i].prefix, w.rungs[i].prefix) {
				t.Errorf("rung %d: suite tally differs between seeds %d and %d:\n%+v\n%+v",
					i, ref.seed, w.seed, ref.rungs[i].prefix, w.rungs[i].prefix)
			}
		}
	}
}

// coldPlane pins a campaign to cold boots: the warm-fork oracle.
var coldPlane = PlaneOptions{ColdBoot: true}

// coldCampaign runs cfg with every run booted cold.
func coldCampaign(cfg CampaignConfig, profile []SiteProfile) CampaignResult {
	cfg.Plane = coldPlane
	res, _ := RunCampaign(cfg, profile)
	return res
}

// ladderTestPlan returns a small single-fault campaign and its cold
// oracle result.
func ladderTestPlan(t *testing.T) (CampaignConfig, []SiteProfile, CampaignResult) {
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
		MaxRuns:        6,
	}
	return cfg, profile, coldCampaign(cfg, profile)
}

func TestLadderFallbackColdBootPinned(t *testing.T) {
	cfg, profile, _ := ladderTestPlan(t)
	cfg.Plane = coldPlane
	_, stats := RunCampaign(cfg, profile)
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("pinned cold boots still forked: %+v", stats)
	}
	if stats.ColdBoots == 0 || stats.Fallbacks[FallbackColdBootPinned] != stats.ColdBoots {
		t.Errorf("cold boots not charged to %s: %+v", FallbackColdBootPinned, stats)
	}
}

func TestLadderFallbackBackgroundRates(t *testing.T) {
	// A sweep with no zero-rate point: every run draws background fault
	// placements during boot and must boot cold.
	sweep := SweepConfig{Policy: seep.PolicyEnhanced, Seed: 42, RatesBP: []int{25}, Runs: 2, Workers: 1}
	points, stats := SweepIPC(sweep)
	sweep.Plane = coldPlane
	coldPoints, _ := SweepIPC(sweep)
	if !reflect.DeepEqual(points, coldPoints) {
		t.Errorf("rate-point sweep diverged:\ncold: %+v\nwarm: %+v", coldPoints, points)
	}
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("background-rate runs forked: %+v", stats)
	}
	if stats.Fallbacks[FallbackBackgroundRates] != stats.ColdBoots || stats.ColdBoots != 2 {
		t.Errorf("cold boots not charged to %s: %+v", FallbackBackgroundRates, stats)
	}

	// A campaign whose every run carries background rates is pinned cold
	// at plane construction, whatever fault types the plan arms.
	cfg, profile, _ := ladderTestPlan(t)
	cfg.IPC = IPCOptions{Faults: kernel.IPCFaultConfig{DropBP: 25}, Seed: 7}
	res, stats := RunCampaign(cfg, profile)
	coldRes := coldCampaign(cfg, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("background-rate campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	if stats.Fallbacks[FallbackBackgroundRates] != stats.Total() {
		t.Errorf("cold boots not charged to %s: %+v", FallbackBackgroundRates, stats)
	}
}

func TestLadderFallbackOccurrenceWithinBoot(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a site that executes during boot and arm its very first
	// occurrence: the trigger is consumed before the boot barrier, so
	// even the PR 7 boot-barrier fork would miss it.
	var boot0 *SiteProfile
	for i := range profile {
		if profile[i].Boot > 0 {
			boot0 = &profile[i]
			break
		}
	}
	if boot0 == nil {
		t.Fatal("no site executes during boot; profile changed shape")
	}
	inj := Injection{Server: boot0.Server, Site: boot0.Site, Occurrence: 1, Type: FaultCrash}
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := NewArmedRunner(cfg, []Injection{inj})
	defer runner.Close()
	warmRR := runner.Run(99, inj)
	coldRR := RunOne(seep.PolicyEnhanced, 99, inj)
	if !reflect.DeepEqual(coldRR, warmRR) {
		t.Errorf("pre-barrier run diverged:\ncold: %+v\nwarm: %+v", coldRR, warmRR)
	}
	stats := runner.Stats()
	if stats.Fallbacks[FallbackPreBarrier] != 1 || stats.ColdBoots != 1 {
		t.Errorf("run not charged to %s: %+v", FallbackPreBarrier, stats)
	}
}

func TestLadderFallbackForkFailed(t *testing.T) {
	cfg, profile, coldRes := ladderTestPlan(t)
	prev := forkSnapshot
	forkSnapshot = func(*boot.Snapshot, boot.ForkParams, usr.Program) (*boot.System, error) {
		return nil, errors.New("injected fork failure")
	}
	defer func() { forkSnapshot = prev }()
	res, stats := RunCampaign(cfg, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("fork-failure campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("failed forks counted as served: %+v", stats)
	}
	if stats.Fallbacks[FallbackForkFailed] != stats.Total() || stats.Total() == 0 {
		t.Errorf("cold boots not charged to %s: %+v", FallbackForkFailed, stats)
	}
}

func TestLadderFallbackCaptureFailed(t *testing.T) {
	cfg, profile, coldRes := ladderTestPlan(t)
	prev := buildLadder
	buildLadder = func(core.Config, bool) *ladder { return nil }
	defer func() { buildLadder = prev }()
	res, stats := RunCampaign(cfg, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("capture-failure campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	if stats.Fallbacks[FallbackNoSnapshot] != stats.Total() || stats.Total() == 0 {
		t.Errorf("cold boots not charged to %s: %+v", FallbackNoSnapshot, stats)
	}
}

// Zero-rate sweep runs arm nothing, so they fork the DEEPEST held
// rung and replay only the suite tail.
func TestLadderServesBackgroundZeroRate(t *testing.T) {
	sweep := SweepConfig{Policy: seep.PolicyEnhanced, Seed: 42, RatesBP: []int{0}, Runs: 3, Workers: 1}
	points, stats := SweepIPC(sweep)
	sweep.Plane = coldPlane
	coldPoints, _ := SweepIPC(sweep)
	if !reflect.DeepEqual(points, coldPoints) {
		t.Errorf("zero-rate sweep diverged:\ncold: %+v\nwarm: %+v", coldPoints, points)
	}
	if stats.LadderForks != 3 || stats.ColdBoots != 0 {
		t.Errorf("zero-rate runs not ladder-served: %+v", stats)
	}
}

// Armed campaign runs should overwhelmingly fork from mid-suite rungs;
// the split is accounted exhaustively.
func TestLadderServingStatsAccounting(t *testing.T) {
	cfg, profile, coldRes := ladderTestPlan(t)
	res, stats := RunCampaign(cfg, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("campaign diverged:\ncold: %+v\nwarm: %+v", coldRes, res)
	}
	plan := PlanCampaign(cfg, profile)
	if stats.Total() != len(plan) {
		t.Errorf("stats cover %d runs, plan has %d", stats.Total(), len(plan))
	}
	if stats.LadderForks == 0 {
		t.Errorf("no run forked from a mid-suite rung: %+v", stats)
	}
}
