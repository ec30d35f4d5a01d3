// Micro-benchmarks of the warm-boot snapshot/fork plane: what one
// cold boot to the quiescence barrier costs versus forking a runnable
// machine from a captured image, and the end-to-end campaign
// throughput each setup path yields:
//
//	go test -bench 'ColdBoot|WarmFork|CampaignThroughput' -benchmem
package osiris

import (
	"fmt"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// warmBenchOptions is the boot configuration every campaign run uses:
// the full suite registry with heartbeats on.
func warmBenchOptions(seed uint64) boot.Options {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return boot.Options{
		Config:     core.Config{Policy: seep.PolicyEnhanced, Seed: seed},
		Registry:   reg,
		Heartbeats: true,
	}
}

// BenchmarkColdBoot measures one cold campaign setup: build the
// registry, boot the machine and run it to the post-install quiescence
// barrier — the work a warm fork replaces.
func BenchmarkColdBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report testsuite.Report
		sys := boot.Boot(warmBenchOptions(uint64(i+1)), testsuite.RunnerInit(&report))
		if !sys.Kernel().RunToBarrier(faultinject.RunLimit) {
			b.Fatal("cold boot never reached the barrier")
		}
		sys.Shutdown("bench: cold boot measured")
	}
}

// BenchmarkWarmFork measures forking one runnable machine from a
// captured warm image — the O(state size) path campaigns take per run.
func BenchmarkWarmFork(b *testing.B) {
	var capReport testsuite.Report
	snap, err := boot.Capture(warmBenchOptions(42), faultinject.RunLimit, testsuite.RunnerInit(&capReport))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var report testsuite.Report
		sys, err := snap.Fork(boot.ForkParams{Seed: uint64(i + 1)}, testsuite.RunnerResume(&report))
		if err != nil {
			b.Fatal(err)
		}
		sys.Shutdown("bench: fork measured")
	}
}

// BenchmarkCampaignThroughputColdBoot is BenchmarkCampaignThroughput
// with warm forking disabled: every run pays a full boot, the
// historical baseline the snapshot/fork plane is measured against.
func BenchmarkCampaignThroughputColdBoot(b *testing.B) {
	prev := faultinject.SetColdBootDefault(true)
	defer faultinject.SetColdBootDefault(prev)
	benchmarkCampaignThroughput(b)
}

// armedRunPlan builds the single-fault plan and warm plane the armed-run
// benchmarks share, with the ladder fully walked and its snapshots
// captured before the timer starts.
func armedRunPlan(b *testing.B) (faultinject.CampaignConfig, []faultinject.Injection, *faultinject.ArmedRunner) {
	profile, err := faultinject.Profile(42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := faultinject.CampaignConfig{
		Policy:         seep.PolicyEnhanced,
		Model:          faultinject.FailStop,
		Seed:           42,
		SamplesPerSite: 1,
		MaxRuns:        24,
		Workers:        1,
	}
	plan := faultinject.PlanCampaign(cfg, profile)
	if len(plan) == 0 {
		b.Fatal("empty campaign plan")
	}
	runner := faultinject.NewArmedRunner(cfg, plan)
	runner.Prime()
	return cfg, plan, runner
}

// BenchmarkArmedRun isolates the armed-run phase of a campaign: the
// warm plane is built and the snapshot ladder fully walked OUTSIDE the
// timed loop, so ns/op is the residual per-run cost — fork from the
// serving rung plus the post-trigger suite suffix. Tail elision is
// pinned off so the suffix is genuinely executed; BenchmarkArmedRunElided
// measures the spliced path. Together with BenchmarkColdBoot (setup
// replaced per run) and BenchmarkArmedRunColdBoot (setup + full suite
// per run) it yields the Amdahl split of campaign time recorded in
// BENCH_baseline.json.
func BenchmarkArmedRun(b *testing.B) {
	prev := faultinject.SetNoElideDefault(true)
	defer faultinject.SetNoElideDefault(prev)
	cfg, plan, runner := armedRunPlan(b)
	defer runner.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(plan)
		runner.Run(cfg.Seed+uint64(j)*7919, plan[j])
	}
	b.StopTimer()
	stats := runner.Stats()
	if stats.ColdBoots > 0 {
		b.Fatalf("armed runs fell back to cold boots: %+v", stats)
	}
}

// BenchmarkArmedRunColdBoot runs the same armed plan with every run
// booting cold — the full boot + whole-suite cost BenchmarkArmedRun's
// ladder fork amortizes away.
func BenchmarkArmedRunColdBoot(b *testing.B) {
	prev := faultinject.SetColdBootDefault(true)
	defer faultinject.SetColdBootDefault(prev)
	cfg, plan, runner := armedRunPlan(b)
	defer runner.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(plan)
		runner.Run(cfg.Seed+uint64(j)*7919, plan[j])
	}
}

// BenchmarkArmedRunElided is BenchmarkArmedRun with tail elision on: a
// run whose fault recovered hashes its state at each quiescence barrier
// and, on fingerprint match against the pathfinder rung, splices the
// recorded suffix deltas instead of executing the remaining programs.
// ns/op is fork + pre-convergence prefix; the gap to BenchmarkArmedRun
// is the elided tail.
func BenchmarkArmedRunElided(b *testing.B) {
	prev := faultinject.SetNoElideDefault(false)
	defer faultinject.SetNoElideDefault(prev)
	cfg, plan, runner := armedRunPlan(b)
	defer func() { runner.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(plan)
		if j == 0 && i > 0 {
			// A second lap over the plan would rejoin what the first
			// published; every lap gets a fresh plane, as a campaign does.
			b.StopTimer()
			runner.Close()
			runner = faultinject.NewArmedRunner(cfg, plan)
			runner.Prime()
			b.StartTimer()
		}
		runner.Run(cfg.Seed+uint64(j)*7919, plan[j])
	}
	b.StopTimer()
	if stats := runner.Stats(); stats.Elided == 0 {
		b.Fatalf("no runs elided: %+v", stats)
	}
}

// BenchmarkStateFingerprint measures the rolling store fingerprint an
// armed run pays at each quiescence barrier, on a synthetic store sized
// like the VM frame table (the largest real container set). The rolling
// hash only re-mixes containers dirtied since the last call, so a clean
// barrier costs O(1) regardless of state size; the dirty variants
// re-hash 10% and 100% of the containers per call.
func BenchmarkStateFingerprint(b *testing.B) {
	const (
		containers = 100
		elems      = 1024
	)
	for _, tc := range []struct {
		name  string
		dirty int
	}{
		{"clean", 0},
		{"dirty10", containers / 10},
		{"dirty100", containers},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := memlog.NewStore("bench", memlog.Optimized)
			slices := make([]*memlog.Slice[int32], containers)
			for i := range slices {
				slices[i] = memlog.NewSlice[int32](st, fmt.Sprintf("frames%03d", i))
				for j := 0; j < elems; j++ {
					slices[i].Append(int32(i + j))
				}
			}
			if _, err := st.Fingerprint(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < tc.dirty; k++ {
					slices[k].Set(0, int32(i+k))
				}
				if _, err := st.Fingerprint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
