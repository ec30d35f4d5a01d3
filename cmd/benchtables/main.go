// Command benchtables regenerates the paper's evaluation tables and
// figures on the simulated OSIRIS system.
//
// Usage:
//
//	benchtables [-scale quick|full] [-seed N] [-only 1,2,3,4,5,6,f3,mf,ablation,ipc]
//	            [-workers N] [-coldboot] [-noelide] [-json out.json]
//	            [-list] [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Independent simulated machines fan out across -workers threads, and
// campaign runs fork from a warm machine's snapshot ladder and elide
// their tails; -coldboot boots every run from scratch and -noelide
// executes every run to its end. The tables are bit-identical under
// every setting, and internal/eval's TestGolden pins them in
// testdata/golden. -list prints the section keys accepted by -only.
// -json writes a machine-readable report with per-section wall-clock
// and process allocation statistics alongside the table data.
// Host-time measurements live in osirisbench (bash bench/run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/eval"
	"repro/internal/faultinject"
	"repro/internal/parallel"
)

func main() { os.Exit(runCommand()) }

// runCommand is the command; it returns the exit status instead of
// exiting, so the deferred CPU profile stop and file closes run first.
func runCommand() int {
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
		for _, s := range eval.Sections {
			fmt.Printf("%-10s %-32s %s\n", s.Key, s.Name, s.Desc)
		}
		return 0
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "benchtables: -workers %d: must be at least 0\n", *workers)
		return 2
	}
	plane := faultinject.PlaneOptions{ColdBoot: *coldBoot, NoElide: *noElide}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			return 1
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
		return 1
	}
	return 0
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

	sections, err := eval.Select(only)
	if err != nil {
		return err
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

	for _, sec := range sections {
		t0 := time.Now()
		data, err := sec.Run(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", sec.Name, err)
		}
		fmt.Println(data.Render())
		rep.Sections = append(rep.Sections, section{
			Name:   sec.Name,
			WallMS: float64(time.Since(t0).Microseconds()) / 1000,
			Data:   data,
		})
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
