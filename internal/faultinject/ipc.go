package faultinject

import (
	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// IPCOptions configures transport fault interposition and the
// end-to-end reliability layer for campaign runs. The zero value keeps
// both off, reproducing the historical (perfectly reliable) transport.
type IPCOptions struct {
	// Faults are the background fault rates, in basis points per
	// transmission.
	Faults kernel.IPCFaultConfig
	// Seed perturbs the per-run fault stream; each run draws from
	// Seed ^ runSeed, so campaigns stay deterministic while every boot
	// sees different fault placements.
	Seed uint64
	// TimeoutCycles and RetryMax parameterize the sender-side
	// reliability layer (zero TimeoutCycles: layer off; zero RetryMax:
	// kernel default budget).
	TimeoutCycles int64
	RetryMax      int
}

// Enabled reports whether the options change the transport at all.
func (o IPCOptions) Enabled() bool { return o.Faults.Enabled() || o.TimeoutCycles > 0 }

// normalized forces the reliability layer on whenever a transport fault
// can fire — from background rates or from an armed IPC injection. A
// dropped request with no retransmission would block its sender
// forever and turn every such run into a spurious hang.
func (o IPCOptions) normalized(armsIPC bool) IPCOptions {
	if (o.Faults.Enabled() || armsIPC) && o.TimeoutCycles <= 0 {
		o.TimeoutCycles = core.DefaultIPCTimeoutCycles
	}
	return o
}

// apply copies the options into a run's Config using the run seed.
func (o IPCOptions) apply(cfg core.Config, runSeed uint64) core.Config {
	if !o.Enabled() {
		return cfg
	}
	cfg.IPCFaults = o.Faults
	cfg.IPCFaultSeed = o.Seed ^ runSeed
	cfg.IPCTimeoutCycles = o.TimeoutCycles
	cfg.IPCRetryMax = o.RetryMax
	return cfg
}

// RunBackground boots the machine with only background transport faults
// (no planned component fault), runs the prototype suite and classifies
// the outcome. Unlike single-fault injections, background rates fire
// repeatedly, so the cascade sequencer stays enabled as in RunMulti.
func RunBackground(policy seep.Policy, seed uint64, ipc IPCOptions) RunResult {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	var report testsuite.Report

	ipc = ipc.normalized(false)
	sys := boot.Boot(boot.Options{
		Config:     ipc.apply(core.Config{Policy: policy, Seed: seed}, seed),
		Registry:   reg,
		Heartbeats: true,
	}, testsuite.RunnerInit(&report))
	return finishRunBackground(sys, &report, ipc, seed, nil)
}

// finishRunBackground runs the suite on a prepared machine — cold-booted
// or forked from a warm image — and classifies the outcome. ipc must be
// the normalized options the machine was configured with. A non-nil
// elider (zero-rate warm forks only — no fault ever arms) lets the run
// splice the pathfinder's suffix at its first quiescence barrier.
func finishRunBackground(sys *boot.System, report *testsuite.Report, ipc IPCOptions, seed uint64, el *elider) RunResult {
	aud := audit.Attach(sys.OS)
	if el != nil {
		el.ready = func() bool { return true }
	}
	res := runElidable(sys, report, aud, el)
	out := RunResult{
		Outcome:     classify(res, report),
		Triggered:   ipc.Faults.Enabled(),
		TestsFailed: report.Failed,
		Reason:      res.Reason,
		Seed:        seed,
	}
	out.Consistent = aud.Consistent()
	for _, v := range aud.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}

// SweepPoint is one row of an IPC fault-rate sweep: all five fault
// rates set to RateBP basis points each.
type SweepPoint struct {
	RateBP int
	Runs   int
	Counts map[Outcome]int
	// Consistent counts runs whose audits all passed;
	// InconsistentSeeds replays the rest.
	Consistent        int
	InconsistentSeeds []uint64
}

// Percent reports the share of runs with the given outcome.
func (p SweepPoint) Percent(o Outcome) float64 {
	if p.Runs == 0 {
		return 0
	}
	return 100 * float64(p.Counts[o]) / float64(p.Runs)
}

// ConsistentPercent reports the share of runs the auditor classified
// consistent.
func (p SweepPoint) ConsistentPercent() float64 {
	if p.Runs == 0 {
		return 0
	}
	return 100 * float64(p.Consistent) / float64(p.Runs)
}

// SweepIPC runs the suite `runs` times per rate point, with every fault
// class (drop, duplicate, delay, reorder, corrupt) at rateBP basis
// points, and reports survival and audited consistency per point.
// Results are bit-identical for any worker count.
func SweepIPC(policy seep.Policy, seed uint64, ratesBP []int, runs, workers int) []SweepPoint {
	points, _ := SweepIPCWithStats(policy, seed, ratesBP, runs, workers)
	return points
}

// SweepIPCWithStats is SweepIPC plus the warm-plane serving statistics
// (zero-rate runs fork from the ladder's deepest rung; rate points boot
// cold). The sweep points are identical to SweepIPC's.
func SweepIPCWithStats(policy seep.Policy, seed uint64, ratesBP []int, runs, workers int) ([]SweepPoint, PlaneStats) {
	if runs <= 0 {
		runs = 5
	}
	type job struct{ point, run int }
	var jobs []job
	for p := range ratesBP {
		for r := 0; r < runs; r++ {
			jobs = append(jobs, job{p, r})
		}
	}
	// Zero-rate points leave the transport untouched, so their runs can
	// fork one warm image; points with live rates draw per-run fault
	// placements during boot and must boot cold (see warmboot.go).
	runner := newBackgroundRunner(policy, seed, ratesBP)
	defer runner.close()
	results := parallel.Map(workers, len(jobs), func(i int) RunResult {
		j := jobs[i]
		bp := ratesBP[j.point]
		opts := IPCOptions{
			Faults: kernel.IPCFaultConfig{
				DropBP: bp, DupBP: bp, DelayBP: bp, ReorderBP: bp, CorruptBP: bp,
			},
			Seed: seed ^ 0x51EE9,
		}
		return runner.runBackground(seed+uint64(i)*15485863, opts)
	})
	points := make([]SweepPoint, len(ratesBP))
	for i := range points {
		points[i] = SweepPoint{RateBP: ratesBP[i], Counts: make(map[Outcome]int)}
	}
	for i, rr := range results {
		p := &points[jobs[i].point]
		p.Runs++
		p.Counts[rr.Outcome]++
		if rr.Consistent {
			p.Consistent++
		} else {
			p.InconsistentSeeds = append(p.InconsistentSeeds, rr.Seed)
		}
	}
	return points, runner.stats.snapshot()
}
