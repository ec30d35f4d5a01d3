package faultinject

import (
	"errors"
	"reflect"
	"slices"
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
		seed   uint64
		rungs  []rung
		counts []map[siteKey]int
	}
	var walks []walk
	for _, seed := range []uint64{7, 42, 1000007} {
		l := newLadder(planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, seed), false)
		if l == nil {
			t.Fatalf("seed %d: pathfinder failed to reach the boot barrier", seed)
		}
		l.serve(nil) // drive the walk to suite completion
		l.Close()
		w := walk{seed: seed, rungs: l.rungs}
		for i := range l.rungs {
			w.counts = append(w.counts, rungCounts(l, i))
		}
		walks = append(walks, w)
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
			if !reflect.DeepEqual(ref.counts[i], w.counts[i]) {
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

// rungCounts returns rung i's site counts by site. The caller holds l.mu
// or the walk is over.
func rungCounts(l *ladder, i int) map[siteKey]int {
	out := make(map[siteKey]int)
	for key, s := range l.sites {
		if n := l.rungs[i].count(s); n > 0 {
			out[key] = n
		}
	}
	return out
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

// A refused capture leaves one hole, not the end of the ladder: at seed
// 42 the enhanced single-fault ladder refuses some rungs (a component is
// mid-request at that barrier) and holds rungs beyond them, past rung
// 100. walkHeld checks every rung's hole and serving.
func TestLadderCapturesPastRefusedRung(t *testing.T) {
	held := walkHeld(t, planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, 42))
	hole, deepest := slices.Index(held, false), heldAtOrBefore(held, len(held)-1)
	if hole < 0 || deepest <= 100 || deepest < hole {
		t.Fatalf("deepest held rung %d, first refused %d: want a rung past 100 held beyond a refused one", deepest, hole)
	}
}

// walkHeld walks a fresh ladder of cfg to its end, rung by rung, and
// returns which rungs it holds (heldRungs). It fails t unless every rung
// was tried, each rung not held refuses a capture of its own, and every
// fault forks from the deepest held rung at or before its trigger's
// rung: for each rung r that a next program follows, a fault at the
// first execution past r of a site that program runs; and a fault-free
// run, whose trigger lies past the last rung.
func walkHeld(t *testing.T, cfg core.Config) []bool {
	t.Helper()
	l := newLadder(cfg, false)
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	defer l.Close()
	func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		for l.sys != nil {
			l.advance()
			r := len(l.rungs) - 1
			if len(l.snaps) != len(l.rungs) {
				t.Fatalf("walk of %d rungs tried %d captures", len(l.rungs), len(l.snaps))
			}
			if l.sys == nil || l.snaps[r] != nil {
				continue
			}
			if _, err := boot.CaptureParked(l.sys, l.opts); err == nil {
				t.Fatalf("rung %d captures but the ladder does not hold it", r)
			}
		}
	}()
	held := heldRungs(l)
	if !held[0] {
		t.Fatal("rung 0 is not held")
	}
	keys := make([]siteKey, len(l.sites))
	for key, s := range l.sites {
		keys[s] = key
	}
	for r := 0; r+1 < len(l.rungs); r++ {
		site := -1
		for s, n := range l.rungs[r+1].counts {
			if int(n) > l.rungs[r].count(s) {
				site = s
				break
			}
		}
		if site < 0 {
			continue // program r+1 executes no fault point
		}
		occ := l.rungs[r].count(site) + 1
		st, ok := l.serve([]MultiInjection{{Injection: Injection{Server: keys[site][0], Site: keys[site][1], Occurrence: occ}}})
		if want := heldAtOrBefore(held, r); !ok || st.snap == nil || st.rung != want {
			t.Fatalf("a fault at %v occurrence %d (past rung %d) forks from rung %d (served %v), want %d", keys[site], occ, r, st.rung, ok, want)
		}
		if want := l.rungs[st.rung].count(site); st.base[0] != want {
			t.Fatalf("a fault served from rung %d counts down from %d, want %d", st.rung, st.base[0], want)
		}
	}
	st, ok := l.serve(nil)
	if want := heldAtOrBefore(held, len(held)-1); !ok || st.rung != want {
		t.Fatalf("a fault-free run forks from rung %d, want the deepest held rung %d", st.rung, want)
	}
	return held
}

// heldRungs reports, per rung the ladder has walked, whether it holds
// the rung's snapshot. The caller holds l.mu or the campaign that walked
// l is over.
func heldRungs(l *ladder) []bool {
	held := make([]bool, len(l.snaps))
	for i, snap := range l.snaps {
		held[i] = snap != nil
	}
	return held
}

// heldAtOrBefore is the deepest held rung at or before rung r.
func heldAtOrBefore(held []bool, r int) int {
	for !held[r] {
		r--
	}
	return r
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
