package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/seep"
)

// thinIndices replaced float-stride thinning, whose rounding could
// over- or undershoot the requested run count. The integer form must
// return exactly max strictly increasing in-range indices, always
// starting at 0, for every shape of (n, max).
func TestThinIndicesExactCount(t *testing.T) {
	cases := []struct{ n, max int }{
		{10, 3}, {60, 60}, {61, 60}, {1000, 60}, {7, 5},
		{2, 1}, {97, 13}, {3, 2}, {1, 1}, {1024, 1023},
	}
	for _, tc := range cases {
		idx := thinIndices(tc.n, tc.max)
		if len(idx) != tc.max {
			t.Fatalf("thinIndices(%d,%d): %d indices, want %d", tc.n, tc.max, len(idx), tc.max)
		}
		if idx[0] != 0 {
			t.Errorf("thinIndices(%d,%d): first index %d, want 0", tc.n, tc.max, idx[0])
		}
		prev := -1
		for _, i := range idx {
			if i <= prev {
				t.Fatalf("thinIndices(%d,%d): indices not strictly increasing: %v", tc.n, tc.max, idx)
			}
			if i >= tc.n {
				t.Fatalf("thinIndices(%d,%d): index %d out of range", tc.n, tc.max, i)
			}
			prev = i
		}
	}
}

func TestPlanCampaignMaxRunsExact(t *testing.T) {
	profile := []SiteProfile{
		{Server: "pm", Site: "a", Total: 100, Boot: 2},
		{Server: "pm", Site: "b", Total: 50, Boot: 0},
		{Server: "ds", Site: "c", Total: 40, Boot: 1},
	}
	cfg := CampaignConfig{Model: FailStop, Seed: 3, SamplesPerSite: 7}
	full := len(PlanCampaign(cfg, profile))
	for max := 1; max <= full; max++ {
		cfg.MaxRuns = max
		if got := len(PlanCampaign(cfg, profile)); got != max {
			t.Fatalf("MaxRuns=%d produced %d runs (full plan %d)", max, got, full)
		}
	}
}

// The parallel campaign engine must produce bit-identical aggregates
// for every worker count: each run is a pure function of its seed, and
// reduction happens in plan order regardless of completion order.
func TestRunCampaignIdenticalAcrossWorkerCounts(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FailStop,
		Seed: 7, SamplesPerSite: 1, MaxRuns: 10, Workers: 1,
	}
	serial, _ := RunCampaign(cfg, profile)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		got, _ := RunCampaign(cfg, profile)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d result diverged from serial:\n%+v\nvs\n%+v", workers, got, serial)
		}
	}
}

func TestRunMultiCampaignIdenticalAcrossWorkerCounts(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MultiCampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FailStop,
		Faults: 2, Runs: 6, Seed: 11, Workers: 1,
	}
	serial, _ := RunMultiCampaign(cfg, profile)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		got, _ := RunMultiCampaign(cfg, profile)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d result diverged from serial:\n%+v\nvs\n%+v", workers, got, serial)
		}
	}
}
