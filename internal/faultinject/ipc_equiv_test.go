package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/seep"
)

// The IPC fault plane draws every fate from a per-run stream seeded by
// IPCFaultSeed ^ runSeed, so campaign outcomes, fault placements and
// audit verdicts must be bit-identical for any worker count — and for
// repeated executions with the same seed. These tests pin that down for
// the three IPC-facing campaign surfaces: the ipc-mix single-fault
// model, fail-stop injections with background transport noise, and the
// background fault-rate sweep.

func TestIPCMixCampaignIdenticalAcrossWorkerCounts(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          IPCMix,
		Seed:           42,
		SamplesPerSite: 1,
		MaxRuns:        12,
		Workers:        1,
	}
	serial, _ := RunCampaign(base, profile)
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		if got, _ := RunCampaign(cfg, profile); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: ipc-mix campaign diverged from serial:\nserial: %+v\ngot:    %+v", workers, serial, got)
		}
	}
}

func TestFailStopWithIPCNoiseIdenticalAcrossWorkerCounts(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          FailStop,
		Seed:           42,
		SamplesPerSite: 1,
		MaxRuns:        10,
		Workers:        1,
		IPC: IPCOptions{
			Faults: kernel.IPCFaultConfig{DropBP: 50, CorruptBP: 50},
			Seed:   0xABCD,
		},
	}
	serial, _ := RunCampaign(base, profile)
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		if got, _ := RunCampaign(cfg, profile); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: fail-stop+noise campaign diverged from serial:\nserial: %+v\ngot:    %+v", workers, serial, got)
		}
	}
}

func TestSweepIPCIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := SweepConfig{Policy: seep.PolicyEnhanced, Seed: 42, RatesBP: []int{0, 50, 200}, Runs: 3, Workers: 1}
	serial, _ := SweepIPC(cfg)
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		if got, _ := SweepIPC(cfg); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: IPC sweep diverged from serial:\nserial: %+v\ngot:    %+v", workers, serial, got)
		}
	}
}

// Replayability: the same seed must reproduce the same campaign twice,
// counter for counter — the property the inconsistent-seed log relies
// on.
func TestIPCMixCampaignSameSeedRepeatable(t *testing.T) {
	profile, err := Profile(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          IPCMix,
		Seed:           7,
		SamplesPerSite: 1,
		MaxRuns:        8,
		Workers:        4,
	}
	first, _ := RunCampaign(cfg, profile)
	second, _ := RunCampaign(cfg, profile)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same-seed ipc-mix campaign not repeatable:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
