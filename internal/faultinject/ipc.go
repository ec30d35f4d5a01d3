package faultinject

import (
	"encoding/json"

	"repro/internal/kernel"
	"repro/internal/seep"
)

// IPCOptions configures transport fault interposition for campaign
// runs. The zero value keeps it off, reproducing the historical
// (perfectly reliable) transport. The interposition plane, with its
// end-to-end reliability layer, runs exactly when a transport fault can
// fire — from a background rate here or from an armed IPC injection: a
// dropped request with no retransmission would block its sender forever
// and turn every such run into a spurious hang.
type IPCOptions struct {
	// Faults are the background fault rates, in basis points per
	// transmission.
	Faults kernel.IPCFaultConfig
	// Seed perturbs the per-run fault stream; each run draws from
	// Seed ^ runSeed, so campaigns stay deterministic while every boot
	// sees different fault placements.
	Seed uint64
}

// SweepConfig parameterizes an IPC fault-rate sweep.
type SweepConfig struct {
	Policy seep.Policy
	Seed   uint64
	// RatesBP lists the sweep points: every fault class (drop, duplicate,
	// delay, reorder, corrupt) fires at that many basis points.
	RatesBP []int
	// Runs is the number of boots per point. Zero means 5.
	Runs int
	// Workers bounds concurrent boots (0 = one per CPU, 1 = serial);
	// results are bit-identical for any worker count.
	Workers int
	// Plane selects how the runs are served, exactly as in
	// CampaignConfig.
	Plane PlaneOptions
}

// SweepPoint is one row of an IPC fault-rate sweep: all five fault
// rates set to RateBP basis points each. A sweep counts every run — the
// zero-rate baseline row included — so Untriggered stays zero.
type SweepPoint struct {
	RateBP int
	Tally
}

// MarshalJSON keeps the sweep's report shape: a row has no Untriggered
// column.
func (p SweepPoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		RateBP, Runs      int
		Counts            map[Outcome]int
		Consistent        int
		InconsistentSeeds []uint64
	}{p.RateBP, p.Runs, p.Counts, p.Consistent, p.InconsistentSeeds})
}

// SweepIPC runs the suite cfg.Runs times per rate point and reports
// survival and audited consistency per point. Zero-rate points leave the
// transport untouched, so their runs fork the deepest rung of one warm
// ladder and replay only the suite tail; points with live rates draw
// per-run fault placements during boot and boot cold (see pipeline.go).
func SweepIPC(cfg SweepConfig) ([]SweepPoint, PlaneStats) {
	runs := cfg.Runs
	if runs <= 0 {
		runs = 5
	}
	points := make([]SweepPoint, len(cfg.RatesBP))
	for i, bp := range cfg.RatesBP {
		points[i] = SweepPoint{RateBP: bp, Tally: newTally()}
	}
	runner := campaignRunner{policy: cfg.Policy, seed: cfg.Seed, opts: cfg.Plane}
	defer runner.close()
	campaign{
		n: len(points) * runs, workers: cfg.Workers,
		run: func(i int) (MultiRunResult, Serving) {
			bp := cfg.RatesBP[i/runs]
			ipc := IPCOptions{
				Faults: kernel.IPCFaultConfig{
					DropBP: bp, DupBP: bp, DelayBP: bp, ReorderBP: bp, CorruptBP: bp,
				},
				Seed: cfg.Seed ^ 0x51EE9,
			}
			return runner.run(cfg.Seed+uint64(i)*15485863, runSpec{kind: kindBackground, ipc: ipc})
		},
		tally: func(i int, run MultiRunResult) { points[i/runs].add(run, true) },
	}.drive()
	return points, runner.Stats()
}
