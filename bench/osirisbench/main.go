// Command osirisbench is this repository's benchmark: five fixed-work,
// closed-loop workloads against the simulator's public functions, the
// end-to-end metrics of each, an output oracle, and — with -trace 1 — a
// traced run that yields the per-layer metrics and a span file.
//
//	osirisbench                         all five workloads, one child process each
//	osirisbench -workload os_steady     one workload, in this process
//	osirisbench -trace 1 -spans f.json  traced run(s): per-layer metrics and spans
//	osirisbench -out A.json             append the runs to a report file
//	osirisbench -compare A.json B.json  judge report B against baseline A
//
// The last line a single-workload run prints is the one-line JSON result
// BENCHMARK.json's driver reads. See bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/bench/internal/harness"
	"repro/bench/internal/sut"
)

// setups is how many times a run performs set-up; setup_s is the median.
const setups = 5

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 42, "workload seed: feeds the profile, the plan RNGs and the machine seeds")
		seconds  = flag.Float64("seconds", harness.RefSeconds, "size of the run: the fixed work counts are those that take about this long on the reference box")
		trace    = flag.Int("trace", 0, "1: traced run at a quarter of the op count, reporting per-layer metrics")
		spans    = flag.String("spans", "", "span file a traced run writes (default .bench_build/spans-<workload>.json)")
		out      = flag.String("out", "", "report file to append the runs to (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two report files: osirisbench -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 {
		fatalf(2, "unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf(2, "-seconds must be positive and -trace 0 or 1")
	}
	if name := sut.SwitchSet(); name != "" {
		fatalf(2, "%s is set: with a simulator switch on, the numbers describe a different program", name)
	}

	workloads := sut.Workloads()
	if *workload == "all" {
		os.Exit(runAll(workloads))
	}
	for _, w := range workloads {
		if w.Name == *workload {
			os.Exit(runOne(w, harness.Options{
				Seed: *seed, Scale: *seconds / harness.RefSeconds, Trace: *trace == 1, Setups: setups,
			}, *spans, *out))
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	fatalf(2, "unknown workload %q (have %s, all)", *workload, strings.Join(names, ", "))
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "osirisbench: "+format+"\n", args...)
	os.Exit(code)
}

// runAll runs every workload in a child process of its own, so that peak
// RSS, GC state and the simulator's process-global switches cannot leak
// from one workload into the next. The children inherit the flags.
func runAll(workloads []*harness.Workload) int {
	self, err := os.Executable()
	if err != nil {
		fatalf(2, "cannot find own executable: %v", err)
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "spans" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload=" + w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "osirisbench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

func environment() harness.Env {
	env := harness.Env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	// Stamped by the go tool when the binary is built inside a git checkout.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if env.Commit != "unknown" {
			env.Commit += dirty
		}
	}
	return env
}

// runOne runs one workload in this process, prints its metrics and, as
// the last line, the driver's one-line JSON result.
func runOne(w *harness.Workload, opt harness.Options, spanPath, outPath string) int {
	env := environment()
	fmt.Printf("== %s  seed=%d scale=%.3g workers=%d GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		w.Name, opt.Seed, opt.Scale, w.Workers, w.Workers, env.NProc, env.GoVersion, env.Commit)
	fmt.Printf("   %s\n", w.Why)

	run, spans, err := harness.Execute(w, opt)
	if err != nil {
		fatalf(1, "%s: %v", w.Name, err)
	}
	if opt.Trace {
		printLayer(run)
		if spanPath == "" {
			if err := os.MkdirAll(".bench_build", 0o755); err != nil {
				fatalf(1, "%v", err)
			}
			spanPath = ".bench_build/spans-" + w.Name + ".json"
		}
		if err := harness.WriteSpanFile(spanPath, w.Name, opt.Seed, spans); err != nil {
			fatalf(1, "writing spans: %v", err)
		}
		fmt.Printf("   spans written to %s\n", spanPath)
	} else {
		printEndToEnd(run)
	}
	fmt.Printf("   ops %d  attempted %d  failed %d  discarded %d  hung %v  fail_share %.4g\n",
		run.Ops, run.Attempted, run.Failed, run.Discarded, run.HungOps, run.FailShare)
	fmt.Printf("   sim_digest %s\n", run.SimDigest)
	for _, e := range run.Errors {
		fmt.Printf("   FAILED %s\n", e)
	}
	if outPath != "" {
		if err := harness.AppendReport(outPath, env, []harness.Run{*run}); err != nil {
			fatalf(1, "writing report: %v", err)
		}
	}

	fmt.Println(harness.DriverLine(run))
	if !run.Correct() {
		return 1
	}
	return 0
}

func printEndToEnd(run *harness.Run) {
	for _, def := range harness.EndToEnd {
		m, ok := run.Metrics[def.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("   %-20s %14.4f %-9s", def.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		fmt.Println(line)
	}
	if r := run.Raw; r != nil {
		fmt.Printf("   times above are scaled to the reference host; as measured: host_factor %.4f (set-up %.4f)  wall %.3f s  ops_per_s %.4f  op_ms_p50 %.4f  op_ms_p95 %.4f  setup_s %.4f\n",
			r.HostFactor, r.SetupHostFactor, r.WallS, r.OpsPerS, r.OpMSP50, r.OpMSP95, r.SetupS)
	}
}

func printLayer(run *harness.Run) {
	names := make([]string, 0, len(run.Layer))
	for n := range run.Layer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-44s %16.4f %s\n", n, run.Layer[n].Value, run.Layer[n].Unit)
	}
	fmt.Printf("   %-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range run.Self {
		fmt.Printf("   %-28s %8d %12.3f %12.3f\n", s.Name, s.Count, float64(s.TotalNS)/1e6, float64(s.SelfNS)/1e6)
	}
}

func runCompare(files []string) int {
	if len(files) != 2 {
		fatalf(2, "-compare needs two report files")
	}
	a, err := harness.ReadReport(files[0])
	if err != nil {
		fatalf(2, "%v", err)
	}
	b, err := harness.ReadReport(files[1])
	if err != nil {
		fatalf(2, "%v", err)
	}
	c := harness.Compare(a, b)
	c.Print(os.Stdout)
	if c.Failed() {
		return 1
	}
	return 0
}
