package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/seep"
)

// Tests of the ladder's capture rule (the campaign-level equivalence
// tests live in ladder_equiv_test.go). All names start with TestLadder
// so CI selects them with -run Ladder.

// heldPrefix walks a fresh ladder of cfg to its end, rung by rung, and
// returns how many snapshots it holds. It fails t unless every stride
// rung before the first failed capture is held and that capture failed
// because the machine refuses one, not for lack of room.
func heldPrefix(t *testing.T, cfg core.Config) int {
	t.Helper()
	l := newLadder(cfg, false)
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	defer l.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	failed := -1
	for l.sys != nil {
		l.advance()
		r := len(l.rungs) - 1
		if l.sys == nil || failed >= 0 || r%captureStride != 0 {
			continue
		}
		if len(l.snaps) == r/captureStride+1 {
			continue
		}
		if _, err := boot.CaptureParked(l.sys, l.opts); err == nil {
			t.Fatalf("rung %d captures but the ladder does not hold it", r)
		}
		failed = r
	}
	strides := (len(l.rungs)-1)/captureStride + 1
	if failed >= 0 {
		strides = failed / captureStride
	}
	if len(l.snaps) != strides {
		t.Fatalf("walk of %d rungs holds %d snapshots, want %d (first failed capture at rung %d)", len(l.rungs), len(l.snaps), strides, failed)
	}
	return len(l.snaps)
}

// TestLadderServingIndependentOfWorkers: the held rungs are a function of
// the walk alone — every stride rung up to the first capture the machine
// refuses — so the rung every run forks from and the fork and cold
// splits are the same at any worker count.
func TestLadderServingIndependentOfWorkers(t *testing.T) {
	var built []*ladder
	prev := buildLadder
	buildLadder = func(cfg core.Config, noElide bool) *ladder {
		l := newLadder(cfg, noElide)
		built = append(built, l)
		return l
	}
	t.Cleanup(func() { buildLadder = prev })

	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42, SamplesPerSite: 1, MaxRuns: 48}
	type split struct {
		rungs              []int
		ladder, boot, cold int
		fallbacks          map[string]int
	}
	var ref split
	for _, workers := range []int{1, 2, 8} {
		got := split{rungs: make([]int, len(PlanCampaign(cfg, profile)))}
		cfg.Workers = workers
		cfg.OnServe = func(i int, sv Serving) { got.rungs[i] = sv.Rung }
		_, stats := RunCampaign(cfg, profile)
		got.ladder, got.boot, got.cold, got.fallbacks = stats.LadderForks, stats.BootForks, stats.ColdBoots, stats.Fallbacks
		if workers == 1 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d serves differently from workers=1:\n%+v\n%+v", workers, got, ref)
		}
	}

	held := heldPrefix(t, planeClass{kind: kindSingle}.config(cfg.Policy, cfg.Seed))
	for _, l := range built {
		if want := min(held, (len(l.rungs)-1)/captureStride+1); len(l.snaps) != want {
			t.Errorf("campaign ladder walked %d rungs and holds %d snapshots, want %d", len(l.rungs), len(l.snaps), want)
		}
	}
}
