package faultinject

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/seep"
)

// Tests of the ladder's capture rule (the campaign-level equivalence
// tests live in ladder_equiv_test.go). All names start with TestLadder
// so CI selects them with -run Ladder.

// withLadderBudget builds every ladder of the test with the given cap,
// through the buildLadder seam.
func withLadderBudget(t *testing.T, budget int64) {
	t.Helper()
	prev := buildLadder
	buildLadder = func(cfg core.Config, noElide bool, _ int64) *ladder { return newLadder(cfg, noElide, budget) }
	t.Cleanup(func() { buildLadder = prev })
}

// walkTo drives l's pathfinder until rung n is recorded.
func walkTo(l *ladder, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.sys != nil && len(l.rungs) <= n {
		l.advance()
	}
}

// TestLadderCacheBoundaries drives the capture rule through its edges on
// real walks. A probe at the default cap gives the sizes: rung 0's snapshot,
// rung captureStride's, and the records charged before the second
// capture; every ladder of the test boots the same configuration.
func TestLadderCacheBoundaries(t *testing.T) {
	cfg := planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, 7)
	build := func(budget int64) *ladder {
		t.Helper()
		l := newLadder(cfg, false, budget)
		if l == nil {
			t.Fatal("pathfinder failed to reach the boot barrier")
		}
		t.Cleanup(l.Close)
		return l
	}
	probe := build(ladderBudget)
	walkTo(probe, captureStride)
	if len(probe.snaps) != 2 {
		t.Fatalf("default ladder holds %d snapshots at rung %d, want 2", len(probe.snaps), captureStride)
	}
	size0, size1 := probe.snaps[0].SizeBytes(), probe.snaps[1].SizeBytes()
	exact := probe.used
	if records := exact - size0 - size1; records <= 0 {
		t.Fatalf("no record bytes charged before the second capture (%d)", records)
	}

	t.Run("SmallerThanOneSnapshot", func(t *testing.T) {
		l := build(size0 - 1)
		idx, _, snap, ok := l.serve(nil) // walks to the end and serves the deepest held rung
		if !ok || idx != 0 || snap != l.snaps[0] || len(l.snaps) != 1 {
			t.Fatalf("served rung %d (ok %v) holding %d snapshots, want rung 0 alone", idx, ok, len(l.snaps))
		}
		if len(l.rungs) <= captureStride {
			t.Fatalf("walk recorded only %d rungs", len(l.rungs))
		}
	})

	t.Run("ExactFitDoesNotEvict", func(t *testing.T) {
		l := build(exact)
		walkTo(l, captureStride)
		if len(l.snaps) != 2 || l.used != exact {
			t.Fatalf("exact fit holds %d snapshots, %d/%d bytes", len(l.snaps), l.used, exact)
		}
	})

	t.Run("RecordsCount", func(t *testing.T) {
		l := build(size0 + size1)
		walkTo(l, captureStride)
		if len(l.snaps) != 1 {
			t.Fatalf("rung %d's snapshot was held with no room left for the records charged before it", captureStride)
		}
	})

	t.Run("FirstMissStopsCapture", func(t *testing.T) {
		l := build(exact - 1)
		walkTo(l, captureStride)
		if len(l.snaps) != 1 {
			t.Fatalf("one byte short of an exact fit still held %d snapshots", len(l.snaps))
		}
		l.budget = math.MaxInt64 // every later rung fits now
		l.serve(nil)
		if len(l.snaps) != 1 {
			t.Fatalf("capture resumed after its first miss: %d snapshots held", len(l.snaps))
		}
	})
}

// TestLadderServingIndependentOfWorkers: the held rungs are a function of
// the walk alone, so at a cap that binds mid-suite (the ladder of the
// benchmark campaign needs 16–32 MiB) the rung every run forks from and
// the fork and cold splits are the same at any worker count.
func TestLadderServingIndependentOfWorkers(t *testing.T) {
	const budget = 8 << 20
	var built []*ladder
	prev := buildLadder
	buildLadder = func(cfg core.Config, noElide bool, _ int64) *ladder {
		l := newLadder(cfg, noElide, budget)
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
	for _, l := range built {
		if strides := (len(l.rungs)-1)/captureStride + 1; len(l.snaps) >= strides {
			t.Errorf("an %d-byte cap held all %d stride rungs: the test guards nothing", budget, strides)
		}
	}
}
