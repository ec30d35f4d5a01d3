// Package eval regenerates every table and figure of the paper's
// evaluation (§VI): recovery coverage (Table I), survivability under
// fault injection (Tables II and III), baseline performance vs a
// monolithic kernel (Table IV), instrumentation slowdowns (Table V),
// memory overhead (Table VI) and service disruption (Figure 3).
// cmd/benchtables is a thin wrapper over this package.
package eval

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/parallel"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/unixbench"
	"repro/internal/usr"
)

// Scale trades evaluation fidelity for runtime.
type Scale struct {
	// IterScale scales Unixbench iteration counts.
	IterScale float64
	// SamplesPerSite and MaxRuns bound the fault campaigns.
	SamplesPerSite int
	MaxRuns        int
	// Seed drives everything.
	Seed uint64
	// Workers bounds how many independent simulated boots run
	// concurrently. Every table is a deterministic reduction over
	// per-run results collected by run index, so the output is
	// bit-identical for any worker count. Zero selects one worker per
	// CPU; 1 reproduces the historical serial path exactly.
	Workers int
	// Plane selects how campaign runs are served (warm forks and tail
	// elision by default; every table is bit-identical for any setting).
	Plane faultinject.PlaneOptions
}

// QuickScale is suitable for tests.
func QuickScale() Scale {
	return Scale{IterScale: 0.25, SamplesPerSite: 1, MaxRuns: 60, Seed: 42}
}

// FullScale reproduces the tables at full size (cmd/benchtables).
func FullScale() Scale {
	return Scale{IterScale: 1, SamplesPerSite: 4, MaxRuns: 0, Seed: 42}
}

// Section is one table or figure of the evaluation report.
type Section struct {
	// Key selects the section in cmd/benchtables' -only, Name is its
	// report name and Desc the line -list prints.
	Key, Name, Desc string
	Run             func(Scale) (Renderer, error)
}

// Renderer is a section's result: its data, printed as a table.
type Renderer interface{ Render() string }

// Sections are the report's sections in emission order.
var Sections = []Section{
	{"1", "table1_coverage", "Table I: recovery coverage per policy", func(sc Scale) (Renderer, error) { return RunTable1(sc) }},
	{"2", "table2_survivability_failstop", "Table II: survivability under fail-stop faults", func(sc Scale) (Renderer, error) { return RunSurvivability(faultinject.FailStop, sc) }},
	{"3", "table3_survivability_edfi", "Table III: survivability under the full EDFI fault mix", func(sc Scale) (Renderer, error) { return RunSurvivability(faultinject.FullEDFI, sc) }},
	{"4", "table4_perf_vs_monolithic", "Table IV: benchmark scores vs monolithic baseline", func(sc Scale) (Renderer, error) { return RunTable4(sc), nil }},
	{"5", "table5_instrumentation", "Table V: instrumentation slowdown per policy", func(sc Scale) (Renderer, error) { return RunTable5(sc), nil }},
	{"6", "table6_memory", "Table VI: state and undo-log memory overhead", func(sc Scale) (Renderer, error) { return RunTable6(sc) }},
	{"f3", "figure3_disruption", "Figure 3: service disruption during recovery", func(sc Scale) (Renderer, error) { return RunFigure3(sc, nil), nil }},
	{"mf", "multifault_cascade", "Multi-fault cascade survivability (beyond the paper)", func(sc Scale) (Renderer, error) { return RunMultiFault(sc) }},
	{"ablation", "ablation_checkpointing", "Checkpointing ablation: undo log vs full copy", func(sc Scale) (Renderer, error) { return RunAblationCheckpointing(sc), nil }},
	{"ipc", "ipc_reliability", "Survivability vs background transport fault rate", func(sc Scale) (Renderer, error) { return RunIPCSweep(sc), nil }},
}

// Select returns the sections a comma-separated list of keys names, in
// emission order; an empty list selects them all.
func Select(keys string) ([]Section, error) {
	named, valid := strings.Split(keys, ","), make([]string, len(Sections))
	for i, s := range Sections {
		valid[i] = s.Key
	}
	for i, k := range named {
		if named[i] = strings.TrimSpace(k); keys != "" && !slices.Contains(valid, named[i]) {
			return nil, fmt.Errorf("unknown table %q (valid: %s; see -list)", named[i], strings.Join(valid, ","))
		}
	}
	var out []Section
	for _, s := range Sections {
		if keys == "" || slices.Contains(named, s.Key) {
			out = append(out, s)
		}
	}
	return out, nil
}

// --- Table I: recovery coverage ---

// CoverageRow is one server's recovery coverage under both policies.
// Pessimistic/Enhanced are the basic-block proxies; CyclesPess/
// CyclesEnh weight by execution time, the paper's caption metric.
type CoverageRow struct {
	Server                string
	Pessimistic, Enhanced float64 // percent of basic blocks
	CyclesPess, CyclesEnh float64 // percent of execution cycles
	BlocksPess, BlocksEnh uint64
}

// Table1 measures per-server recovery coverage by running the
// prototype test suite under the pessimistic and enhanced policies.
type Table1 struct {
	Rows []CoverageRow
	// WeightedPessimistic/Enhanced are the block-weighted means (the
	// paper's 57.7% / 68.4%).
	WeightedPessimistic, WeightedEnhanced float64
	// CycleWeightedPessimistic/Enhanced weight by execution time, the
	// metric named in the paper's Table I caption.
	CycleWeightedPessimistic, CycleWeightedEnhanced float64
}

// RunTable1 regenerates Table I. The two coverage runs are independent
// machines and execute concurrently.
func RunTable1(sc Scale) (Table1, error) {
	var (
		pess, enh  map[string]seep.Stats
		errP, errE error
	)
	parallel.Do(sc.Workers,
		func() { pess, errP = coverageRun(seep.PolicyPessimistic, sc.Seed) },
		func() { enh, errE = coverageRun(seep.PolicyEnhanced, sc.Seed) },
	)
	if errP != nil {
		return Table1{}, fmt.Errorf("pessimistic run: %w", errP)
	}
	if errE != nil {
		return Table1{}, fmt.Errorf("enhanced run: %w", errE)
	}

	var t Table1
	var sumBlocksP, sumInP, sumBlocksE, sumInE uint64
	var sumCycP, sumCycInP, sumCycE, sumCycInE float64
	names := make([]string, 0, len(pess))
	for name := range pess {
		names = append(names, name)
	}
	sort.Strings(names)
	// Present rows in the paper's order where possible.
	order := []string{"pm", "vfs", "vm", "ds", "rs"}
	ordered := make([]string, 0, len(names))
	for _, n := range order {
		for _, have := range names {
			if have == n {
				ordered = append(ordered, n)
			}
		}
	}
	for _, n := range names {
		if !slices.Contains(ordered, n) {
			ordered = append(ordered, n)
		}
	}

	for _, name := range ordered {
		p, e := pess[name], enh[name]
		row := CoverageRow{
			Server:      name,
			Pessimistic: 100 * p.BlockCoverage(),
			Enhanced:    100 * e.BlockCoverage(),
			CyclesPess:  100 * p.CycleCoverage(),
			CyclesEnh:   100 * e.CycleCoverage(),
			BlocksPess:  p.BlocksIn + p.BlocksOut,
			BlocksEnh:   e.BlocksIn + e.BlocksOut,
		}
		t.Rows = append(t.Rows, row)
		sumBlocksP += row.BlocksPess
		sumInP += p.BlocksIn
		sumBlocksE += row.BlocksEnh
		sumInE += e.BlocksIn
		sumCycP += float64(p.CyclesIn + p.CyclesOut)
		sumCycInP += float64(p.CyclesIn)
		sumCycE += float64(e.CyclesIn + e.CyclesOut)
		sumCycInE += float64(e.CyclesIn)
	}
	if sumBlocksP > 0 {
		t.WeightedPessimistic = 100 * float64(sumInP) / float64(sumBlocksP)
	}
	if sumBlocksE > 0 {
		t.WeightedEnhanced = 100 * float64(sumInE) / float64(sumBlocksE)
	}
	if sumCycP > 0 {
		t.CycleWeightedPessimistic = 100 * sumCycInP / sumCycP
	}
	if sumCycE > 0 {
		t.CycleWeightedEnhanced = 100 * sumCycInE / sumCycE
	}
	return t, nil
}

// coverageRun executes the suite under policy and returns per-server
// window statistics.
func coverageRun(policy seep.Policy, seed uint64) (map[string]seep.Stats, error) {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	var report testsuite.Report
	sys := boot.Boot(boot.Options{
		Config:     core.Config{Policy: policy, Seed: seed},
		Registry:   reg,
		Heartbeats: true,
	}, testsuite.RunnerInit(&report))
	res := sys.Run(faultinject.RunLimit)
	if res.Outcome != kernel.OutcomeCompleted {
		return nil, fmt.Errorf("coverage run: %v (%s)", res.Outcome, res.Reason)
	}
	out := make(map[string]seep.Stats)
	for _, cs := range sys.Stats() {
		out[cs.Name] = cs.Coverage
	}
	return out, nil
}

// Render formats Table I like the paper: basic-block coverage (the
// measurement proxy) alongside time-weighted coverage (the caption's
// metric).
func (t Table1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Recovery coverage inside recovery windows\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %16s %16s\n",
		"Server", "Pess(blocks)", "Enh(blocks)", "Pess(cycles)", "Enh(cycles)")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-8s %13.1f%% %13.1f%% %15.1f%% %15.1f%%\n",
			r.Server, r.Pessimistic, r.Enhanced, r.CyclesPess, r.CyclesEnh)
	}
	fmt.Fprintf(&b, "%-8s %13.1f%% %13.1f%% %15.1f%% %15.1f%%\n", "weighted",
		t.WeightedPessimistic, t.WeightedEnhanced,
		t.CycleWeightedPessimistic, t.CycleWeightedEnhanced)
	return b.String()
}

// --- Tables II and III: survivability ---

// SurvivabilityTable is Table II (fail-stop) or III (full EDFI).
type SurvivabilityTable struct {
	Model faultinject.Model
	Rows  []faultinject.CampaignResult
}

// policiesInTableOrder matches the paper's row order.
var policiesInTableOrder = []seep.Policy{
	seep.PolicyStateless, seep.PolicyNaive, seep.PolicyPessimistic, seep.PolicyEnhanced,
}

// RunSurvivability regenerates Table II (FailStop) or III (FullEDFI).
func RunSurvivability(model faultinject.Model, sc Scale) (SurvivabilityTable, error) {
	profile, err := faultinject.Profile(sc.Seed)
	if err != nil {
		return SurvivabilityTable{}, err
	}
	t := SurvivabilityTable{Model: model}
	// Each campaign fans its runs out internally; the policy rows stay
	// in the paper's order.
	for _, policy := range policiesInTableOrder {
		res, _ := faultinject.RunCampaign(faultinject.CampaignConfig{
			Policy:         policy,
			Model:          model,
			Seed:           sc.Seed,
			SamplesPerSite: sc.SamplesPerSite,
			MaxRuns:        sc.MaxRuns,
			Workers:        sc.Workers,
			Plane:          sc.Plane,
		}, profile)
		t.Rows = append(t.Rows, res)
	}
	return t, nil
}

// Render formats the survivability table like the paper.
func (t SurvivabilityTable) Render() string {
	var b strings.Builder
	table := "II"
	if t.Model == faultinject.FullEDFI {
		table = "III"
	}
	fmt.Fprintf(&b, "Table %s — Survivability under random injection of %s faults\n", table, t.Model)
	fmt.Fprintf(&b, "%-12s %8s %8s %10s %8s %11s %8s\n",
		"Recovery", "Pass", "Fail", "Shutdown", "Crash", "Consistent", "Runs")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %7.1f%% %7.1f%% %9.1f%% %7.1f%% %10.1f%% %8d\n",
			r.Policy,
			r.Percent(faultinject.OutcomePass),
			r.Percent(faultinject.OutcomeFail),
			r.Percent(faultinject.OutcomeShutdown),
			r.Percent(faultinject.OutcomeCrash),
			r.ConsistentPercent(),
			r.Runs)
	}
	return b.String()
}

// --- Cascade table: multi-fault survivability (beyond the paper) ---

// MultiFaultTable aggregates multi-fault campaigns: one row per
// (policy, faults-per-boot) pair. It evaluates the cascade-tolerance
// sequencer, which the paper's one-failure-at-a-time experiments never
// exercise: faults land while other recoveries are pending, inside
// post-recovery windows, and inside the recovery path itself.
type MultiFaultTable struct {
	Rows []faultinject.MultiCampaignResult
}

// multiFaultPolicies are the rows of the cascade table: the two
// consistent-recovery policies the paper recommends.
var multiFaultPolicies = []seep.Policy{seep.PolicyPessimistic, seep.PolicyEnhanced}

// multiFaultCounts are the faults-per-boot columns of the cascade table.
var multiFaultCounts = []int{2, 3}

// RunMultiFault regenerates the cascade survivability table.
func RunMultiFault(sc Scale) (MultiFaultTable, error) {
	profile, err := faultinject.Profile(sc.Seed)
	if err != nil {
		return MultiFaultTable{}, err
	}
	runs := max(sc.MaxRuns/4, 8)
	var t MultiFaultTable
	for _, policy := range multiFaultPolicies {
		for _, faults := range multiFaultCounts {
			res, _ := faultinject.RunMultiCampaign(faultinject.MultiCampaignConfig{
				Policy:  policy,
				Model:   faultinject.FailStop,
				Faults:  faults,
				Runs:    runs,
				Seed:    sc.Seed,
				Workers: sc.Workers,
				Plane:   sc.Plane,
			}, profile)
			t.Rows = append(t.Rows, res)
		}
	}
	return t, nil
}

// Render formats the cascade table in the style of Tables II/III, with
// the extra degraded-pass class (survived by quarantining a component).
func (t MultiFaultTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cascade — Survivability under multi-fault injection (fail-stop faults, beyond the paper)\n")
	fmt.Fprintf(&b, "%-12s %7s %8s %9s %8s %10s %8s %11s %8s\n",
		"Recovery", "Faults", "Pass", "Degraded", "Fail", "Shutdown", "Crash", "Consistent", "Runs")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %7d %7.1f%% %8.1f%% %7.1f%% %9.1f%% %7.1f%% %10.1f%% %8d\n",
			r.Policy,
			r.Faults,
			r.Percent(faultinject.OutcomePass),
			r.Percent(faultinject.OutcomeDegradedPass),
			r.Percent(faultinject.OutcomeFail),
			r.Percent(faultinject.OutcomeShutdown),
			r.Percent(faultinject.OutcomeCrash),
			r.ConsistentPercent(),
			r.Runs)
	}
	return b.String()
}

// --- IPC reliability: survival vs transport fault rate (beyond the paper) ---

// IPCSweepTable reports suite survival and audited consistency as the
// background transport fault rate rises, with the end-to-end
// reliability layer (sequence numbers, retransmission, reply
// redelivery) absorbing the faults.
type IPCSweepTable struct {
	Policy seep.Policy
	Points []faultinject.SweepPoint
}

// ipcSweepRatesBP are the sweep's per-class fault rates in basis points
// per transmission: each of drop, duplicate, delay, reorder and corrupt
// fires at this rate, so total interference is five times the figure.
var ipcSweepRatesBP = []int{0, 25, 50, 100, 200}

// RunIPCSweep regenerates the IPC reliability table under the enhanced
// policy.
func RunIPCSweep(sc Scale) IPCSweepTable {
	points, _ := faultinject.SweepIPC(faultinject.SweepConfig{
		Policy:  seep.PolicyEnhanced,
		Seed:    sc.Seed,
		RatesBP: ipcSweepRatesBP,
		Runs:    sc.SamplesPerSite*2 + 1,
		Workers: sc.Workers,
		Plane:   sc.Plane,
	})
	return IPCSweepTable{Policy: seep.PolicyEnhanced, Points: points}
}

// Render formats the IPC reliability table.
func (t IPCSweepTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IPC — Survivability and audited consistency vs transport fault rate (%s policy)\n", t.Policy)
	fmt.Fprintf(&b, "%-10s %8s %8s %10s %8s %11s %8s\n",
		"Rate(bp)", "Pass", "Fail", "Shutdown", "Crash", "Consistent", "Runs")
	for _, p := range t.Points {
		fmt.Fprintf(&b, "%-10d %7.1f%% %7.1f%% %9.1f%% %7.1f%% %10.1f%% %8d\n",
			p.RateBP,
			p.Percent(faultinject.OutcomePass),
			p.Percent(faultinject.OutcomeFail),
			p.Percent(faultinject.OutcomeShutdown),
			p.Percent(faultinject.OutcomeCrash),
			p.ConsistentPercent(),
			p.Runs)
	}
	return b.String()
}

// --- Table IV: baseline vs monolithic ---

// PerfRow pairs scores of one benchmark under two configurations.
type PerfRow struct {
	Name               string
	Monolithic, OSIRIS float64
	Slowdown           float64 // monolithic/OSIRIS score ratio
}

// Table4 is the baseline performance comparison.
type Table4 struct {
	Rows            []PerfRow
	GeomeanSlowdown float64
}

// runBenchMatrix executes every (config, benchmark) pair on the
// parallel engine and returns results grouped by config, each group in
// table order — byte-identical to running unixbench.RunOne over each
// config's benchmarks serially, but with all machines of all configs in
// one work pool.
func runBenchMatrix(workers int, cfgs ...unixbench.Config) [][]unixbench.Result {
	bench := unixbench.All()
	flat := parallel.Map(workers, len(cfgs)*len(bench), func(i int) unixbench.Result {
		return unixbench.RunOne(bench[i%len(bench)], cfgs[i/len(bench)])
	})
	out := make([][]unixbench.Result, len(cfgs))
	for c := range cfgs {
		out[c] = flat[c*len(bench) : (c+1)*len(bench)]
	}
	return out
}

// RunTable4 regenerates Table IV: the recovery-free microkernel system
// against the monolithic cost model standing in for Linux.
func RunTable4(sc Scale) Table4 {
	grouped := runBenchMatrix(sc.Workers,
		unixbench.Config{
			Monolithic:      true,
			Instrumentation: memlog.Baseline,
			Seed:            sc.Seed,
			IterScale:       sc.IterScale,
		},
		unixbench.Config{
			Policy:          seep.PolicyEnhanced,
			Instrumentation: memlog.Baseline, // baseline build: no recovery
			Seed:            sc.Seed,
			IterScale:       sc.IterScale,
		})
	mono, micro := grouped[0], grouped[1]
	var t Table4
	logSum, n := 0.0, 0
	for i := range mono {
		row := PerfRow{Name: mono[i].Name, Monolithic: mono[i].Score, OSIRIS: micro[i].Score}
		if row.OSIRIS > 0 {
			row.Slowdown = row.Monolithic / row.OSIRIS
			logSum += ln(row.Slowdown)
			n++
		}
		t.Rows = append(t.Rows, row)
	}
	if n > 0 {
		t.GeomeanSlowdown = exp(logSum / float64(n))
	}
	return t
}

// Render formats Table IV.
func (t Table4) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — Baseline performance vs monolithic kernel (scores, higher is better)\n")
	fmt.Fprintf(&b, "%-18s %14s %14s %10s\n", "Benchmark", "Monolithic", "OSIRIS-base", "Slowdown")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s %14.1f %14.1f %9.2fx\n", r.Name, r.Monolithic, r.OSIRIS, r.Slowdown)
	}
	fmt.Fprintf(&b, "%-18s %14s %14s %9.2fx\n", "geomean", "", "", t.GeomeanSlowdown)
	return b.String()
}

// --- Table V: instrumentation slowdowns ---

// SlowdownRow is one benchmark's slowdown ratios against the baseline
// build (lower is better; 1.0 = no overhead).
type SlowdownRow struct {
	Name                               string
	Unoptimized, Pessimistic, Enhanced float64
}

// Table5 is the recovery-instrumentation overhead table.
type Table5 struct {
	Rows                                        []SlowdownRow
	GeoUnoptimized, GeoPessimistic, GeoEnhanced float64
}

// RunTable5 regenerates Table V: slowdown of the unoptimized build and
// of the optimized pessimistic/enhanced builds relative to the
// uninstrumented baseline.
func RunTable5(sc Scale) Table5 {
	grouped := runBenchMatrix(sc.Workers,
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.Baseline,
			Seed: sc.Seed, IterScale: sc.IterScale,
		},
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.Unoptimized,
			Seed: sc.Seed, IterScale: sc.IterScale,
		},
		unixbench.Config{
			Policy: seep.PolicyPessimistic, Instrumentation: memlog.Optimized,
			Seed: sc.Seed, IterScale: sc.IterScale,
		},
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.Optimized,
			Seed: sc.Seed, IterScale: sc.IterScale,
		})
	base, unopt, pess, enh := grouped[0], grouped[1], grouped[2], grouped[3]

	var t Table5
	var lu, lp, le float64
	n := 0
	for i := range base {
		row := SlowdownRow{Name: base[i].Name}
		if base[i].Score > 0 {
			row.Unoptimized = base[i].Score / unopt[i].Score
			row.Pessimistic = base[i].Score / pess[i].Score
			row.Enhanced = base[i].Score / enh[i].Score
			lu += ln(row.Unoptimized)
			lp += ln(row.Pessimistic)
			le += ln(row.Enhanced)
			n++
		}
		t.Rows = append(t.Rows, row)
	}
	if n > 0 {
		t.GeoUnoptimized = exp(lu / float64(n))
		t.GeoPessimistic = exp(lp / float64(n))
		t.GeoEnhanced = exp(le / float64(n))
	}
	return t
}

// Render formats Table V.
func (t Table5) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V — Slowdown ratio vs baseline (lower is better)\n")
	fmt.Fprintf(&b, "%-18s %12s %12s %12s\n", "Benchmark", "Without opt.", "Pessimistic", "Enhanced")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s %12.3f %12.3f %12.3f\n", r.Name, r.Unoptimized, r.Pessimistic, r.Enhanced)
	}
	fmt.Fprintf(&b, "%-18s %12.3f %12.3f %12.3f\n", "geomean", t.GeoUnoptimized, t.GeoPessimistic, t.GeoEnhanced)
	return b.String()
}

// --- Table VI: memory overhead ---

// MemoryRow is one component's memory accounting in bytes.
type MemoryRow struct {
	Server                    string
	Base, Clone, UndoLog, Sum int
}

// Table6 is the per-component memory overhead table.
type Table6 struct {
	Rows                                    []MemoryRow
	TotalBase, TotalClone, TotalUndo, Total int
}

// RunTable6 regenerates Table VI by running a write-heavy Unixbench
// workload mix and sampling per-component memory statistics.
func RunTable6(sc Scale) (Table6, error) {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	var report testsuite.Report
	sys := boot.Boot(boot.Options{
		Config:   core.Config{Policy: seep.PolicyEnhanced, Seed: sc.Seed},
		Registry: reg,
	}, testsuite.RunnerInit(&report))
	res := sys.Run(faultinject.RunLimit)
	if res.Outcome != kernel.OutcomeCompleted {
		return Table6{}, fmt.Errorf("memory run: %v (%s)", res.Outcome, res.Reason)
	}
	var t Table6
	for _, cs := range sys.Stats() {
		row := MemoryRow{
			Server:  cs.Name,
			Base:    cs.BaseBytes,
			Clone:   cs.CloneBytes,
			UndoLog: cs.MaxUndoLogBytes,
		}
		row.Sum = row.Clone + row.UndoLog
		t.Rows = append(t.Rows, row)
		t.TotalBase += row.Base
		t.TotalClone += row.Clone
		t.TotalUndo += row.UndoLog
		t.Total += row.Sum
	}
	return t, nil
}

// Render formats Table VI.
func (t Table6) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI — Per-component memory overhead (KiB)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %14s\n", "Server", "Base", "+clone", "+undo log", "Total overhead")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-8s %12d %12d %12d %14d\n",
			r.Server, kib(r.Base), kib(r.Clone), kib(r.UndoLog), kib(r.Sum))
	}
	fmt.Fprintf(&b, "%-8s %12d %12d %12d %14d\n",
		"total", kib(t.TotalBase), kib(t.TotalClone), kib(t.TotalUndo), kib(t.Total))
	return b.String()
}

func kib(bytes int) int { return (bytes + 1023) / 1024 }

// --- Figure 3: service disruption ---

// DisruptionPoint is one (interval, score) sample for one benchmark.
type DisruptionPoint struct {
	Interval uint64 // fault inflow interval in cycles; 0 = no faults
	Score    float64
}

// Figure3 holds the per-benchmark disruption series.
type Figure3 struct {
	// Intervals is the sweep, smallest first (excluding the fault-free
	// reference which is recorded as interval 0).
	Intervals []uint64
	Series    map[string][]DisruptionPoint
}

// RunFigure3 regenerates Figure 3: Unixbench scores as a function of
// the interval between fail-stop faults injected into PM inside its
// recovery window.
func RunFigure3(sc Scale, intervals []uint64) Figure3 {
	if len(intervals) == 0 {
		intervals = []uint64{50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 6_400_000}
	}
	fig := Figure3{Intervals: intervals, Series: make(map[string][]DisruptionPoint)}

	// Flatten the (benchmark, interval) sweep into one indexed job list
	// so every machine of the figure shares the worker pool. Interval 0
	// is the fault-free reference.
	bench := unixbench.All()
	sweep := append([]uint64{0}, intervals...)
	points := parallel.Map(sc.Workers, len(bench)*len(sweep), func(i int) DisruptionPoint {
		b := bench[i/len(sweep)]
		interval := sweep[i%len(sweep)]
		cfg := unixbench.Config{
			Policy:    seep.PolicyEnhanced,
			Seed:      sc.Seed,
			IterScale: sc.IterScale,
		}
		if interval > 0 {
			cfg.Hook = pmFaultInflow(interval)
		}
		r := unixbench.RunOne(b, cfg)
		return DisruptionPoint{Interval: interval, Score: r.Score}
	})
	for bi, b := range bench {
		fig.Series[b.Name] = points[bi*len(sweep) : (bi+1)*len(sweep)]
	}
	return fig
}

// pmFaultInflow installs a hook that fail-stops PM whenever its
// recovery window is open and at least interval cycles have passed
// since the previous injected fault (§VI-E: faults are injected only
// within the recovery window so the benchmark always completes).
func pmFaultInflow(interval uint64) func(sys *boot.System) {
	return func(sys *boot.System) {
		k := sys.Kernel()
		var next uint64 = uint64(k.Now()) + interval
		k.SetPointHook(func(ep kernel.Endpoint, name, site string) {
			if name != "pm" || k.InRecovery() {
				return
			}
			win := sys.ComponentWindow(kernel.EpPM)
			if win == nil || !win.Open() || !win.Replyable() {
				return
			}
			if uint64(k.Now()) < next {
				return
			}
			next = uint64(k.Now()) + interval
			panic("figure3: periodic fail-stop fault in PM")
		})
	}
}

// Render formats Figure 3 as a data table (series per benchmark)
// followed by an ASCII rendering of the figure itself: score relative
// to the fault-free run, per interval.
func (f Figure3) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — Unixbench score vs fault-inflow interval into PM (cycles)\n")
	fmt.Fprintf(&b, "%-18s %12s", "Benchmark", "no-fault")
	for _, iv := range f.Intervals {
		fmt.Fprintf(&b, " %11d", iv)
	}
	b.WriteString("\n")
	names := make([]string, 0, len(f.Series))
	for n := range f.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-18s", n)
		for _, pt := range f.Series[n] {
			fmt.Fprintf(&b, " %11.1f", pt.Score)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	b.WriteString(f.Chart())
	return b.String()
}

// Chart renders the figure as ASCII art: one row per benchmark, one
// column per interval, each cell the score as a percentage of the
// fault-free score, bucketed into glyphs. Reading left (frequent
// faults) to right (rare faults) shows the paper's curves: PM-dependent
// benchmarks climb back to full speed, independent ones stay flat.
func (f Figure3) Chart() string {
	var b strings.Builder
	b.WriteString("Relative score (% of fault-free), left = most frequent faults\n")
	b.WriteString("    . <25%   - <50%   = <75%   + <95%   * >=95%\n\n")
	names := make([]string, 0, len(f.Series))
	for n := range f.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pts := f.Series[n]
		if len(pts) == 0 || pts[0].Score <= 0 {
			continue
		}
		ref := pts[0].Score
		fmt.Fprintf(&b, "%-18s |", n)
		for _, pt := range pts[1:] {
			rel := pt.Score / ref
			switch {
			case rel >= 0.95:
				b.WriteString(" *")
			case rel >= 0.75:
				b.WriteString(" +")
			case rel >= 0.50:
				b.WriteString(" =")
			case rel >= 0.25:
				b.WriteString(" -")
			default:
				b.WriteString(" .")
			}
		}
		b.WriteString(" |\n")
	}
	return b.String()
}

func ln(x float64) float64  { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }
