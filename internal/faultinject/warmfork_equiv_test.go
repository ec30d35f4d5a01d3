package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/seep"
)

// Warm-fork campaign boots must be bit-identical to cold boots
// everywhere campaigns measure: same outcomes, same trigger flags, same
// failure counts and reasons, same audited-consistency verdicts and
// inconsistent-seed lists, for fail-stop, full-EDFI, IPC-mix,
// multi-fault and sweep campaigns at any worker count. These tests run
// every campaign twice — once forking a warm image, once booting every
// run cold — and compare exhaustively, mirroring the checkpoint
// equivalence suite. They are part of the -race CI run, so concurrent
// forks from one shared snapshot are also exercised under the race
// detector.

// coldPlane pins a campaign to cold boots: the warm-fork oracle.
var coldPlane = PlaneOptions{ColdBoot: true}

// coldCampaign runs cfg with every run booted cold.
func coldCampaign(cfg CampaignConfig, profile []SiteProfile) CampaignResult {
	cfg.Plane = coldPlane
	res, _ := RunCampaign(cfg, profile)
	return res
}

func TestWarmForkEquivalenceSingleFaultCampaign(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{FailStop, FullEDFI} {
		for _, workers := range []int{1, 2, 8} {
			cfg := CampaignConfig{
				Policy:         seep.PolicyEnhanced,
				Model:          model,
				Seed:           42,
				SamplesPerSite: 1,
				MaxRuns:        16,
				Workers:        workers,
			}
			coldRes := coldCampaign(cfg, profile)
			warmRes, _ := RunCampaign(cfg, profile)
			if !reflect.DeepEqual(coldRes, warmRes) {
				t.Errorf("%v workers=%d: campaign diverged:\ncold: %+v\nwarm: %+v", model, workers, coldRes, warmRes)
			}
		}
	}
}

// IPC-mix campaigns arm the reliability layer (timeouts, retransmits)
// on every run — the snapshot must carry the interposition plane and the
// fork must re-seed its per-run fault stream.
func TestWarmForkEquivalenceIPCMixCampaign(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := CampaignConfig{
			Policy:         seep.PolicyEnhanced,
			Model:          IPCMix,
			Seed:           42,
			SamplesPerSite: 1,
			MaxRuns:        12,
			Workers:        workers,
		}
		coldRes := coldCampaign(cfg, profile)
		warmRes, _ := RunCampaign(cfg, profile)
		if !reflect.DeepEqual(coldRes, warmRes) {
			t.Errorf("workers=%d: ipc-mix campaign diverged:\ncold: %+v\nwarm: %+v", workers, coldRes, warmRes)
		}
	}
}

func TestWarmForkEquivalenceMultiFaultCampaign(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := MultiCampaignConfig{
			Policy:  seep.PolicyEnhanced,
			Model:   FullEDFI,
			Faults:  3,
			Runs:    12,
			Seed:    42,
			Workers: workers,
		}
		warmRes, _ := RunMultiCampaign(cfg, profile)
		cfg.Plane = coldPlane
		coldRes, _ := RunMultiCampaign(cfg, profile)
		if !reflect.DeepEqual(coldRes, warmRes) {
			t.Errorf("workers=%d: multi-fault campaign diverged:\ncold: %+v\nwarm: %+v", workers, coldRes, warmRes)
		}
	}
}

// The IPC sweep mixes forkable rows (zero rate) with rows that must
// boot cold (live background rates); both must match the all-cold
// sweep exactly.
func TestWarmForkEquivalenceIPCSweep(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := SweepConfig{Policy: seep.PolicyEnhanced, Seed: 42, RatesBP: []int{0, 25}, Runs: 3, Workers: workers}
		warmRes, _ := SweepIPC(cfg)
		cfg.Plane = coldPlane
		coldRes, _ := SweepIPC(cfg)
		if !reflect.DeepEqual(coldRes, warmRes) {
			t.Errorf("workers=%d: ipc sweep diverged:\ncold: %+v\nwarm: %+v", workers, coldRes, warmRes)
		}
	}
}

// Per-run equivalence at full detail through the campaign runner:
// outcome classification, trigger flag, failure counts and reason
// strings of individual injection runs must match a direct cold boot.
func TestWarmForkEquivalenceRunDetail(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FullEDFI, Seed: 42,
		SamplesPerSite: 1, MaxRuns: 8,
	}
	plan := PlanCampaign(cfg, profile)
	runner := NewArmedRunner(cfg, plan)
	defer runner.Close()
	for i, inj := range plan {
		seed := 42 + uint64(i)*7919
		coldRR := RunOne(seep.PolicyEnhanced, seed, inj)
		warmRR := runner.Run(seed, inj)
		if !reflect.DeepEqual(coldRR, warmRR) {
			t.Errorf("run %d (%+v): diverged:\ncold: %+v\nwarm: %+v", i, inj, coldRR, warmRR)
		}
	}
}
