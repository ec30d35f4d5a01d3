package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/testsuite"
)

// The incremental dirty-set checkpointing must be bit-identical to the
// legacy full-copy path everywhere campaigns measure: same outcomes,
// same cycle counts, same counter snapshots, same audit verdicts, for
// fail-stop, multi-fault and IPC-fault campaigns at any worker count.
// These tests run every workload twice — once per checkpoint
// implementation — and compare exhaustively. They are part of the -race
// CI run.

// withCheckpoint runs fn with the given checkpoint implementation as
// the store default, restoring the previous default afterwards.
func withCheckpoint(legacy bool, fn func()) {
	prev := memlog.SetLegacyCheckpointDefault(legacy)
	defer memlog.SetLegacyCheckpointDefault(prev)
	fn()
}

// runSuiteBoot boots the full prototype test suite (the Table 1
// workload) and returns the run result plus the complete counter
// snapshot.
func runSuiteBoot(policy seep.Policy, seed uint64) (kernel.Result, map[string]uint64, testsuite.Report) {
	var report testsuite.Report
	sys := boot.Boot(suiteOptions(core.Config{Policy: policy, Seed: seed}), testsuite.RunnerInit(&report))
	res := sys.Run(RunLimit)
	return res, sys.Kernel().Counters().Snapshot(), report
}

func TestCheckpointEquivalenceSuiteWorkload(t *testing.T) {
	for _, policy := range []seep.Policy{seep.PolicyEnhanced, seep.PolicyPessimistic, seep.PolicyStateless} {
		for _, seed := range []uint64{1, 7, 42} {
			var oldRes, newRes kernel.Result
			var oldCtr, newCtr map[string]uint64
			var oldRep, newRep testsuite.Report
			withCheckpoint(true, func() { oldRes, oldCtr, oldRep = runSuiteBoot(policy, seed) })
			withCheckpoint(false, func() { newRes, newCtr, newRep = runSuiteBoot(policy, seed) })
			if oldRes != newRes {
				t.Errorf("%v seed %d: result diverged: legacy %+v, incremental %+v", policy, seed, oldRes, newRes)
			}
			if !reflect.DeepEqual(oldCtr, newCtr) {
				t.Errorf("%v seed %d: counter snapshots diverged:\nlegacy:      %v\nincremental: %v", policy, seed, oldCtr, newCtr)
			}
			if !reflect.DeepEqual(oldRep, newRep) {
				t.Errorf("%v seed %d: suite report diverged: legacy %+v, incremental %+v", policy, seed, oldRep, newRep)
			}
		}
	}
}

func TestCheckpointEquivalenceSingleFaultCampaign(t *testing.T) {
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
			var oldRes, newRes CampaignResult
			withCheckpoint(true, func() { oldRes, _ = RunCampaign(cfg, profile) })
			withCheckpoint(false, func() { newRes, _ = RunCampaign(cfg, profile) })
			if !reflect.DeepEqual(oldRes, newRes) {
				t.Errorf("%v workers=%d: campaign diverged:\nlegacy:      %+v\nincremental: %+v", model, workers, oldRes, newRes)
			}
		}
	}
}

func TestCheckpointEquivalenceMultiFaultCampaign(t *testing.T) {
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
		var oldRes, newRes MultiCampaignResult
		withCheckpoint(true, func() { oldRes, _ = RunMultiCampaign(cfg, profile) })
		withCheckpoint(false, func() { newRes, _ = RunMultiCampaign(cfg, profile) })
		if !reflect.DeepEqual(oldRes, newRes) {
			t.Errorf("workers=%d: multi-fault campaign diverged:\nlegacy:      %+v\nincremental: %+v", workers, oldRes, newRes)
		}
	}
}

func TestCheckpointEquivalenceIPCFaultCampaign(t *testing.T) {
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
			IPC: IPCOptions{
				Faults: kernel.IPCFaultConfig{DropBP: 50, CorruptBP: 50},
				Seed:   0xABCD,
			},
		}
		var oldRes, newRes CampaignResult
		withCheckpoint(true, func() { oldRes, _ = RunCampaign(cfg, profile) })
		withCheckpoint(false, func() { newRes, _ = RunCampaign(cfg, profile) })
		if !reflect.DeepEqual(oldRes, newRes) {
			t.Errorf("workers=%d: ipc campaign diverged:\nlegacy:      %+v\nincremental: %+v", workers, oldRes, newRes)
		}
	}
}

// Per-run equivalence at full detail: outcome classification, trigger
// flag, failure counts and reason strings of individual injection runs
// must match across checkpoint implementations.
func TestCheckpointEquivalenceRunDetail(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanCampaign(CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: FullEDFI, Seed: 42,
		SamplesPerSite: 1, MaxRuns: 8,
	}, profile)
	for i, inj := range plan {
		var oldRR, newRR RunResult
		withCheckpoint(true, func() { oldRR = RunOne(seep.PolicyEnhanced, 42+uint64(i)*7919, inj) })
		withCheckpoint(false, func() { newRR = RunOne(seep.PolicyEnhanced, 42+uint64(i)*7919, inj) })
		if !reflect.DeepEqual(oldRR, newRR) {
			t.Errorf("run %d (%+v): diverged:\nlegacy:      %+v\nincremental: %+v", i, inj, oldRR, newRR)
		}
	}
}
