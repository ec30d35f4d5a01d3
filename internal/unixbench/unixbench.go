// Package unixbench reimplements the twelve Unixbench workloads the
// paper uses for its performance evaluation (§VI-C/D/E) as user
// programs over the simulated OS: dhry2reg, whetstone-double, execl,
// fstime, fsbuffer, fsdisk, pipe, context1, spawn, syscall, shell1 and
// shell8. Scores are operations per virtual second; absolute values
// are simulator-scale, and the paper's claims are reproduced as ratios
// between configurations (baseline vs monolithic for Table IV,
// instrumentation modes for Table V).
package unixbench

import (
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/usr"
)

// CyclesPerSecond defines the virtual CPU speed used for scoring.
const CyclesPerSecond = 1_000_000

// runLimit bounds one benchmark run.
const runLimit sim.Cycles = 20_000_000_000

// Benchmark is one workload: it performs iters operations on p.
type Benchmark struct {
	// Name matches the Unixbench test name used in the paper's tables.
	Name string
	// Iters is the default operation count.
	Iters int
	// Run performs the workload and returns the number of operations
	// actually completed (retries after recovery count once).
	Run func(p *usr.Proc, iters int) int
}

// Names returns the benchmark names in table order.
func Names() []string {
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range all {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// All returns the benchmarks in table order (a copy; callers may not
// mutate the canonical set).
func All() []Benchmark {
	out := make([]Benchmark, len(all))
	copy(out, all)
	return out
}

// all lists the twelve workloads in the paper's table order.
var all = []Benchmark{
	{Name: "dhry2reg", Iters: 3000, Run: runDhrystone},
	{Name: "whetstone-double", Iters: 2000, Run: runWhetstone},
	{Name: "execl", Iters: 120, Run: runExecl},
	{Name: "fstime", Iters: 240, Run: runFstime},
	{Name: "fsbuffer", Iters: 320, Run: runFsbuffer},
	{Name: "fsdisk", Iters: 120, Run: runFsdisk},
	{Name: "pipe", Iters: 1200, Run: runPipe},
	{Name: "context1", Iters: 600, Run: runContext1},
	{Name: "spawn", Iters: 150, Run: runSpawn},
	{Name: "syscall", Iters: 2400, Run: runSyscall},
	{Name: "shell1", Iters: 40, Run: runShell1},
	{Name: "shell8", Iters: 8, Run: runShell8},
}

// Result is one benchmark measurement.
type Result struct {
	Name   string
	Iters  int
	Ops    int
	Cycles sim.Cycles
	// Score is operations per virtual second (higher is better).
	Score float64
	// Outcome is the run outcome; anything but completed invalidates
	// the score. Reason carries diagnostics for abnormal outcomes.
	Outcome kernel.RunOutcome
	Reason  string
}

// Config selects the system configuration under test.
type Config struct {
	// Policy is the recovery policy (ignored when Monolithic).
	Policy seep.Policy
	// Instrumentation overrides the store mode (Table V's build modes);
	// zero derives it from Policy.
	Instrumentation memlog.Instrumentation
	// Monolithic selects the monolithic-kernel cost model ("Linux"
	// baseline of Table IV).
	Monolithic bool
	// Seed drives the machine.
	Seed uint64
	// IterScale scales every benchmark's operation count (1.0 = full).
	IterScale float64
	// Hook, when non-nil, is installed as the kernel point hook (the
	// service-disruption experiment injects faults through it). It
	// receives the booted system before the run starts.
	Hook func(sys *boot.System)
}

func (c Config) iters(b Benchmark) int {
	scale := c.IterScale
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(b.Iters) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

// RunOne boots a fresh machine and executes one benchmark.
func RunOne(b Benchmark, cfg Config) Result {
	reg := usr.NewRegistry()
	registerBenchPrograms(reg)

	cost := kernel.DefaultCostModel()
	cost.Monolithic = cfg.Monolithic
	policy := cfg.Policy
	if policy == 0 {
		policy = seep.PolicyEnhanced
	}

	iters := cfg.iters(b)
	var (
		ops          int
		start, stop  sim.Cycles
		setupFailure bool
	)
	sys := boot.Boot(boot.Options{
		Config: core.Config{
			Policy:          policy,
			Seed:            cfg.Seed,
			Cost:            cost,
			Instrumentation: cfg.Instrumentation,
			MaxRecoveries:   1 << 30, // disruption runs recover many times
		},
		Registry: reg,
	}, func(p *usr.Proc) int {
		if errno := usr.InstallPrograms(p); errno != kernel.OK {
			setupFailure = true
			return 1
		}
		p.Mkdir("/tmp")
		start = p.Context().Now()
		ops = b.Run(p, iters)
		stop = p.Context().Now()
		return 0
	})
	if cfg.Hook != nil {
		cfg.Hook(sys)
	}

	res := sys.Run(runLimit)
	out := Result{Name: b.Name, Iters: iters, Ops: ops, Outcome: res.Outcome, Reason: res.Reason}
	if setupFailure || res.Outcome != kernel.OutcomeCompleted || stop <= start || ops == 0 {
		return out
	}
	out.Cycles = stop - start
	out.Score = float64(ops) * CyclesPerSecond / float64(out.Cycles)
	return out
}
