package faultinject

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/testsuite"
)

// Campaign machines must measure the same whichever full-copy checkpoint
// charge rule their stores are built with: same outcomes, same cycle
// counts, same counter snapshots, same audit verdicts, for the
// fault-free suite and for every run of a fail-stop, multi-fault and
// IPC-fault campaign plan. The legacy full-copy charge survives only as
// the §IV-C ablation subject (FullCopy instrumentation, where it costs
// more virtual time by design); it is chosen per boot through
// core.Config.LegacyCheckpoint — there is no process-wide switch — so
// these tests boot every planned run twice, once per setting, and
// compare the complete per-run results. Part of the -race CI run.

// runSuiteBoot boots the full prototype test suite (the Table 1
// workload) and returns the run result plus the complete counter
// snapshot.
func runSuiteBoot(cfg core.Config) (kernel.Result, map[string]uint64, testsuite.Report) {
	var report testsuite.Report
	sys := boot.Boot(suiteOptions(cfg), testsuite.RunnerInit(&report))
	res := sys.Run(RunLimit)
	return res, sys.Kernel().Counters().Snapshot(), report
}

func TestCheckpointEquivalenceSuiteWorkload(t *testing.T) {
	for _, policy := range []seep.Policy{seep.PolicyEnhanced, seep.PolicyPessimistic, seep.PolicyStateless} {
		for _, seed := range []uint64{1, 7, 42} {
			cfg := core.Config{Policy: policy, Seed: seed, LegacyCheckpoint: true}
			oldRes, oldCtr, oldRep := runSuiteBoot(cfg)
			cfg.LegacyCheckpoint = false
			newRes, newCtr, newRep := runSuiteBoot(cfg)
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

// runCheckpoint executes spec on a machine booted cold exactly the way
// campaignRunner.run boots one, with the checkpoint implementation set
// in its configuration.
func runCheckpoint(legacy bool, policy seep.Policy, seed uint64, spec runSpec) MultiRunResult {
	cfg := spec.class().config(policy, seed)
	cfg.LegacyCheckpoint = legacy
	var report testsuite.Report
	sys := boot.Boot(suiteOptions(cfg), testsuite.RunnerInit(&report))
	return execute(sys, &report, spec, seed, nil, nil)
}

// checkRunEquivalence runs spec under both implementations and requires
// identical results.
func checkRunEquivalence(t *testing.T, what string, policy seep.Policy, seed uint64, spec runSpec) {
	t.Helper()
	legacy := runCheckpoint(true, policy, seed, spec)
	incremental := runCheckpoint(false, policy, seed, spec)
	if !reflect.DeepEqual(legacy, incremental) {
		t.Errorf("%s: diverged:\nlegacy:      %+v\nincremental: %+v", what, legacy, incremental)
	}
}

func TestCheckpointEquivalenceSingleFaultCampaign(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{FailStop, FullEDFI} {
		cfg := CampaignConfig{
			Policy:         seep.PolicyEnhanced,
			Model:          model,
			Seed:           42,
			SamplesPerSite: 1,
			MaxRuns:        16,
		}
		for i, inj := range PlanCampaign(cfg, profile) {
			checkRunEquivalence(t, fmt.Sprintf("%v run %d (%+v)", model, i, inj),
				cfg.Policy, cfg.Seed+uint64(i)*7919, singleSpec(inj, cfg.IPC))
		}
	}
}

func TestCheckpointEquivalenceMultiFaultCampaign(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MultiCampaignConfig{
		Policy: seep.PolicyEnhanced,
		Model:  FullEDFI,
		Faults: 3,
		Runs:   12,
		Seed:   42,
	}
	for i, plan := range PlanMultiCampaign(cfg, profile) {
		checkRunEquivalence(t, fmt.Sprintf("run %d (%+v)", i, plan),
			cfg.Policy, cfg.Seed+uint64(i)*104729, multiSpec(plan, cfg.IPC))
	}
}

func TestCheckpointEquivalenceIPCFaultCampaign(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          IPCMix,
		Seed:           42,
		SamplesPerSite: 1,
		MaxRuns:        12,
		IPC: IPCOptions{
			Faults: kernel.IPCFaultConfig{DropBP: 50, CorruptBP: 50},
			Seed:   0xABCD,
		},
	}
	for i, inj := range PlanCampaign(cfg, profile) {
		checkRunEquivalence(t, fmt.Sprintf("run %d (%+v)", i, inj),
			cfg.Policy, cfg.Seed+uint64(i)*7919, singleSpec(inj, cfg.IPC))
	}
}

// Per-run equivalence against the public single-run entry point (which
// also pins runCheckpoint to the boot path it mirrors): outcome
// classification, trigger flag, failure counts and reason strings of
// individual injection runs must match across checkpoint
// implementations.
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
		seed, spec := 42+uint64(i)*7919, singleSpec(inj, IPCOptions{})
		oldRR := runCheckpoint(true, seep.PolicyEnhanced, seed, spec).single(inj)
		newRR := RunOne(seep.PolicyEnhanced, seed, inj)
		if !reflect.DeepEqual(oldRR, newRR) {
			t.Errorf("run %d (%+v): diverged:\nlegacy:      %+v\nincremental: %+v", i, inj, oldRR, newRR)
		}
	}
}
