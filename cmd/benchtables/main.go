// Command benchtables regenerates the paper's evaluation tables and
// figures on the simulated OSIRIS system.
//
// Usage:
//
//	benchtables [-scale quick|full] [-seed N] [-only 1,2,3,4,5,6,f3,mf,ablation,ipc]
//	            [-workers N] [-coldboot] [-noelide] [-json out.json]
//	            [-list] [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Independent simulated machines fan out across -workers threads; the
// numbers are bit-identical for every worker count (-workers 1 is the
// historical serial path). Campaign runs fork from the snapshot ladder
// of a warm pathfinder machine by default, and -coldboot boots every run
// from scratch instead — same tables, historical setup cost. Warm-served runs splice a recorded
// suffix when the state they park in at a suite barrier is one the
// pathfinder or an earlier run already executed from, and end a provably
// wedged run as the hang it is instead of simulating it to the cycle
// limit; -noelide pins both off and executes every run to its end — same
// tables, the bit-identity oracle. -list prints the section keys
// accepted by -only and exits. -json writes a machine-readable report
// with per-section wall-clock and process allocation statistics
// alongside the table data. Host-time measurements live in osirisbench
// (bash bench/run.sh), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/faultinject"
	"repro/internal/parallel"
)

func main() {
	var (
		scaleName  = flag.String("scale", "quick", "evaluation scale: quick or full")
		seed       = flag.Uint64("seed", 42, "simulation seed")
		only       = flag.String("only", "", "comma-separated subset: 1,2,3,4,5,6,f3,mf,ablation,ipc (default all)")
		workers    = flag.Int("workers", 0, "concurrent simulated machines (0 = one per CPU, 1 = serial)")
		coldBoot   = flag.Bool("coldboot", false, "boot every campaign run from scratch instead of forking a warm image")
		noElide    = flag.Bool("noelide", false, "execute every run to its end: no tail splice on fingerprint match, no wedge certificate for hung runs (the bit-identity oracle)")
		list       = flag.Bool("list", false, "print the section keys accepted by -only and exit")
		jsonPath   = flag.String("json", "", "write a machine-readable report to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	if *list {
		for _, s := range sectionInfo {
			fmt.Printf("%-10s %-32s %s\n", s.key, s.name, s.desc)
		}
		return
	}
	plane := faultinject.PlaneOptions{ColdBoot: *coldBoot, NoElide: *noElide}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(*scaleName, *seed, *only, *workers, plane, *jsonPath)
	if *memProfile != "" {
		if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// sectionInfo lists the report sections in emission order: the -only
// key, the JSON section name, and a one-line description for -list.
var sectionInfo = []struct {
	key, name, desc string
}{
	{"1", "table1_coverage", "Table I: recovery coverage per policy"},
	{"2", "table2_survivability_failstop", "Table II: survivability under fail-stop faults"},
	{"3", "table3_survivability_edfi", "Table III: survivability under the full EDFI fault mix"},
	{"4", "table4_perf_vs_monolithic", "Table IV: benchmark scores vs monolithic baseline"},
	{"5", "table5_instrumentation", "Table V: instrumentation slowdown per policy"},
	{"6", "table6_memory", "Table VI: state and undo-log memory overhead"},
	{"f3", "figure3_disruption", "Figure 3: service disruption during recovery"},
	{"mf", "multifault_cascade", "Multi-fault cascade survivability (beyond the paper)"},
	{"ablation", "ablation_checkpointing", "Checkpointing ablation: undo log vs full copy"},
	{"ipc", "ipc_reliability", "Survivability vs background transport fault rate"},
}

// section is one table/figure of the JSON report.
type section struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Data   any     `json:"data"`
}

// report is the machine-readable output of one benchtables invocation.
type report struct {
	Scale       string    `json:"scale"`
	Seed        uint64    `json:"seed"`
	Workers     int       `json:"workers"`
	GoMaxProcs  int       `json:"gomaxprocs"`
	Sections    []section `json:"sections"`
	TotalWallMS float64   `json:"total_wall_ms"`
	// Process-wide allocation statistics over the whole run, for
	// tracking the hot-path pooling work.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint32 `json:"num_gc"`
}

func run(scaleName string, seed uint64, only string, workers int, plane faultinject.PlaneOptions, jsonPath string) error {
	var sc eval.Scale
	switch scaleName {
	case "quick":
		sc = eval.QuickScale()
	case "full":
		sc = eval.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	sc.Seed = seed
	sc.Workers = workers
	sc.Plane = plane

	valid := make(map[string]bool, len(sectionInfo))
	keys := make([]string, 0, len(sectionInfo))
	for _, s := range sectionInfo {
		valid[s.key] = true
		keys = append(keys, s.key)
	}
	if only != "" {
		for _, k := range strings.Split(only, ",") {
			if k = strings.TrimSpace(k); !valid[k] {
				return fmt.Errorf("unknown table %q (valid: %s; see -list)", k, strings.Join(keys, ","))
			}
		}
	}
	want := func(key string) bool {
		if only == "" {
			return true
		}
		for _, k := range strings.Split(only, ",") {
			if strings.TrimSpace(k) == key {
				return true
			}
		}
		return false
	}

	rep := report{
		Scale:      scaleName,
		Seed:       seed,
		Workers:    parallel.Resolve(workers),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	type renderer interface{ Render() string }
	emit := func(name string, data renderer, elapsed time.Duration) {
		fmt.Println(data.Render())
		rep.Sections = append(rep.Sections, section{
			Name:   name,
			WallMS: float64(elapsed.Microseconds()) / 1000,
			Data:   data,
		})
	}

	if want("1") {
		t0 := time.Now()
		t, err := eval.RunTable1(sc)
		if err != nil {
			return fmt.Errorf("table 1: %w", err)
		}
		emit("table1_coverage", t, time.Since(t0))
	}
	if want("2") {
		t0 := time.Now()
		t, err := eval.RunSurvivability(faultinject.FailStop, sc)
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		emit("table2_survivability_failstop", t, time.Since(t0))
	}
	if want("3") {
		t0 := time.Now()
		t, err := eval.RunSurvivability(faultinject.FullEDFI, sc)
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		emit("table3_survivability_edfi", t, time.Since(t0))
	}
	if want("4") {
		t0 := time.Now()
		emit("table4_perf_vs_monolithic", eval.RunTable4(sc), time.Since(t0))
	}
	if want("5") {
		t0 := time.Now()
		emit("table5_instrumentation", eval.RunTable5(sc), time.Since(t0))
	}
	if want("6") {
		t0 := time.Now()
		t, err := eval.RunTable6(sc)
		if err != nil {
			return fmt.Errorf("table 6: %w", err)
		}
		emit("table6_memory", t, time.Since(t0))
	}
	if want("f3") {
		t0 := time.Now()
		emit("figure3_disruption", eval.RunFigure3(sc, nil), time.Since(t0))
	}
	if want("mf") {
		t0 := time.Now()
		t, err := eval.RunMultiFault(sc)
		if err != nil {
			return fmt.Errorf("multi-fault table: %w", err)
		}
		emit("multifault_cascade", t, time.Since(t0))
	}
	if want("ablation") {
		t0 := time.Now()
		emit("ablation_checkpointing", eval.RunAblationCheckpointing(sc), time.Since(t0))
	}
	if want("ipc") {
		t0 := time.Now()
		emit("ipc_reliability", eval.RunIPCSweep(sc), time.Since(t0))
	}

	if jsonPath != "" {
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		rep.TotalWallMS = float64(time.Since(start).Microseconds()) / 1000
		rep.AllocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
		rep.Mallocs = msAfter.Mallocs - msBefore.Mallocs
		rep.NumGC = msAfter.NumGC - msBefore.NumGC
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d sections, %.0f ms)\n", jsonPath, len(rep.Sections), rep.TotalWallMS)
	}
	return nil
}
