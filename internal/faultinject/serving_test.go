package faultinject

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/seep"
)

// The serving decision is one value with one rendering and one
// accumulator. The golden table pins the rendering to the strings
// osiris-trace/v1 files already carry — one row per plane and per
// fallback constant — and checks that accumulating any of them keeps
// the PlaneStats identities.
func TestServingGolden(t *testing.T) {
	golden := []struct {
		sv   Serving
		want string
	}{
		{Serving{Plane: PlaneCold, Fallback: FallbackColdBootPinned}, "cold:coldboot-pinned"},
		{Serving{Plane: PlaneCold, Fallback: FallbackBackgroundRates}, "cold:background-ipc-rates"},
		{Serving{Plane: PlaneCold, Fallback: FallbackNoSnapshot}, "cold:capture-failed"},
		{Serving{Plane: PlaneCold, Fallback: FallbackPreBarrier}, "cold:occurrence-within-boot"},
		{Serving{Plane: PlaneCold, Fallback: FallbackForkFailed}, "cold:fork-failed"},
		{Serving{Plane: PlaneForked, Fallback: ElideFallbackPinned}, "rung:0 full:noelide-pinned"},
		{Serving{Plane: PlaneForked, Fallback: ElideFallbackNoTail}, "rung:0 full:tail-unavailable"},
		{Serving{Plane: PlaneForked, Rung: 4, Fallback: ElideFallbackUntriggered}, "rung:4 full:fault-untriggered"},
		{Serving{Plane: PlaneForked, Rung: 4, Fallback: ElideFallbackEndedEarly}, "rung:4 full:ended-before-barrier"},
		{Serving{Plane: PlaneForked, Rung: 4, Fallback: ElideFallbackMismatch}, "rung:4 full:fingerprint-mismatch"},
		{Serving{Plane: PlaneForked, Rung: 88, Fallback: ElideFallbackResidue}, "rung:88 full:state-residue"},
		{Serving{Plane: PlaneForked, Rung: 60, Fallback: ElideFallbackWedgeUnproven}, "rung:60 full:wedge-unproven"},
		{Serving{Plane: PlaneElided, Rung: 88, At: 91}, "rung:88 elided:91"},
		{Serving{Plane: PlaneElided, At: 3}, "rung:0 elided:3"},
		{Serving{Plane: PlaneRejoined, Rung: 17, At: 33}, "rung:17 rejoined:33"},
		{Serving{Plane: PlaneWedged, Rung: 60, At: 7379203}, "rung:60 wedged:7379203"},
		{Serving{Plane: PlaneJournal}, "journal"},
	}
	var stats PlaneStats
	for _, g := range golden {
		if got := g.sv.String(); got != g.want {
			t.Errorf("%+v renders %q, want %q", g.sv, got, g.want)
		}
		stats.add(g.sv)
		assertElisionAccounted(t, stats)
		cold := 0
		for _, n := range stats.Fallbacks {
			cold += n
		}
		if cold != stats.ColdBoots {
			t.Errorf("after %q: fallbacks sum to %d, %d cold boots", g.want, cold, stats.ColdBoots)
		}
	}
	want := PlaneStats{
		LadderForks: 8, BootForks: 3, ColdBoots: 5,
		Fallbacks: map[string]int{
			FallbackColdBootPinned: 1, FallbackBackgroundRates: 1, FallbackNoSnapshot: 1,
			FallbackPreBarrier: 1, FallbackForkFailed: 1,
		},
		Elided: 3, Rejoined: 1, Wedged: 1,
		ElisionFallbacks: map[string]int{
			ElideFallbackPinned: 1, ElideFallbackNoTail: 1, ElideFallbackUntriggered: 1,
			ElideFallbackEndedEarly: 1, ElideFallbackMismatch: 1, ElideFallbackResidue: 1,
			ElideFallbackWedgeUnproven: 1,
		},
	}
	if !reflect.DeepEqual(stats, want) {
		t.Errorf("accumulated\n%+v\nwant\n%+v", stats, want)
	}
}

// A runner must serve a run of a configuration class its plan did not
// contain — here a transport fault through a fail-stop plan's runner,
// and any run through an empty plan's — by building the class's ladder
// on first use, with the result a cold boot's.
func TestArmedRunnerServesClassOutsidePlan(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42, SamplesPerSite: 1, MaxRuns: 4}
	plan := PlanCampaign(cfg, profile)
	drop := plan[0]
	drop.Type = FaultIPCDrop
	for name, prepared := range map[string][]Injection{"fail-stop plan": plan, "empty plan": nil} {
		runner := NewArmedRunner(cfg, prepared)
		for _, inj := range []Injection{drop, plan[0]} {
			if warm, cold := runner.Run(99, inj), RunOne(cfg.Policy, 99, inj); !reflect.DeepEqual(cold, warm) {
				t.Errorf("%s, %v fault: diverged:\ncold: %+v\nwarm: %+v", name, inj.Type, cold, warm)
			}
		}
		if stats := runner.Stats(); stats.ColdBoots != 0 || stats.Total() != 2 {
			t.Errorf("%s: runs not served warm: %+v", name, stats)
		}
		runner.Close()
	}
}

// Plane options are fields of the runner they configure: a cold-pinned,
// a no-elide and a default runner over one plan, running concurrently in
// one process, each serve the way they were told and agree on every
// result.
func TestPlaneOptionsDoNotLeak(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42, SamplesPerSite: 1, MaxRuns: 24}
	plan := PlanCampaign(cfg, profile)
	planes := []PlaneOptions{{ColdBoot: true}, {NoElide: true}, {}}
	results := make([][]RunResult, len(planes))
	stats := make([]PlaneStats, len(planes))
	var wg sync.WaitGroup
	for p, plane := range planes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := cfg
			cfg.Plane = plane
			results[p], _, stats[p] = servedPass(cfg, plan, 1)
		}()
	}
	wg.Wait()
	if cold := stats[0]; cold.ColdBoots != len(plan) || cold.Fallbacks[FallbackColdBootPinned] != len(plan) {
		t.Errorf("cold-pinned runner: %+v, want %d pinned cold boots", cold, len(plan))
	}
	if pinned := stats[1]; pinned.ColdBoots != 0 || pinned.Elided != 0 || pinned.Wedged != 0 ||
		pinned.ElisionFallbacks[ElideFallbackPinned] != len(plan) {
		t.Errorf("no-elide runner: %+v, want %d warm runs executed in full", pinned, len(plan))
	}
	if def := stats[2]; def.ColdBoots != 0 || def.Elided == 0 {
		t.Errorf("default runner: %+v, want warm runs with elided tails", def)
	}
	for p := 1; p < len(planes); p++ {
		if !reflect.DeepEqual(results[0], results[p]) {
			t.Errorf("results under %+v differ from the cold-pinned runner's", planes[p])
		}
	}
}
