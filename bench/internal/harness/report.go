package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Metric is one measured value with its unit; Samples is the number of
// per-op samples behind a latency figure (0 where it does not apply).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// MetricDef defines an end-to-end metric: its unit, which direction is
// better, and the share of the baseline median by which it may worsen
// before -compare calls it a regression. Floor, when non-zero, is an
// absolute change below which a difference is never a regression.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
	// Driver marks the metrics BENCHMARK.json lists: those defined, and
	// never zero, on every workload.
	Driver bool
}

// EndToEnd is the benchmark's end-to-end metric table. BENCHMARK.json
// repeats the Driver rows; a test keeps the two in step.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05, Driver: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Driver: true},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "op_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "op_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.16, Driver: true},
	{Name: "mallocs_per_op", Unit: "count", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "sim_mcycles_per_s", Unit: "Mcycle/s", Better: "higher", Bound: 0.25},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// DriverNames lists the end-to-end metrics BENCHMARK.json repeats.
func DriverNames() []string {
	var names []string
	for _, def := range EndToEnd {
		if def.Driver {
			names = append(names, def.Name)
		}
	}
	return names
}

// Run is the record of one workload run.
type Run struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	Workers  int     `json:"workers"`
	Traced   bool    `json:"traced"`

	Ops       int `json:"ops"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Discarded counts candidates executed but over their class quota;
	// HungOps lists inputs left out because they hang the system under
	// test (see the README's "known defect" note).
	Discarded int      `json:"discarded"`
	HungOps   []int    `json:"hung_ops,omitempty"`
	FailShare float64  `json:"fail_share"`
	SimDigest string   `json:"sim_digest"`
	Errors    []string `json:"errors,omitempty"`

	// Metrics holds the end-to-end metrics of an untraced run (times
	// scaled to the reference host, Raw the unscaled readings), Layer the
	// per-layer metrics of a traced one.
	Metrics map[string]Metric `json:"metrics,omitempty"`
	Raw     *RawTimes         `json:"raw,omitempty"`
	Layer   map[string]Metric `json:"layer,omitempty"`
	// Self is the per-span-name self-time table of a traced run.
	Self []SelfStat `json:"self,omitempty"`
}

// Correct reports whether every op was served and verified.
func (r *Run) Correct() bool { return r.Failed == 0 && len(r.Errors) == 0 && r.Attempted > 0 }

// Env records where and on what a report was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Report is the on-disk form -out writes and -compare reads; a file may
// carry several runs of a workload.
type Report struct {
	Env  Env   `json:"env"`
	Runs []Run `json:"runs"`
}

// EndToEndMetrics derives the end-to-end metrics of an untraced pass.
// Times are scaled to the reference host: divided by the pass's host
// factor (setupS comes in already scaled by the factor measured around
// set-up).
func EndToEndMetrics(p *Pass, setupS, peakRSSMB float64) map[string]Metric {
	lat := Summarize(p.Latencies())
	ops := float64(len(p.Ops))
	f := p.HostFactor
	m := map[string]Metric{
		"setup_s":     {Value: setupS, Unit: "s"},
		"ops_per_s":   {Value: p.OpsPerSecond() * f, Unit: "1/s", Samples: len(p.Ops)},
		"op_ms_p50":   {Value: lat.P50 / f, Unit: "ms", Samples: lat.Samples},
		"op_ms_p95":   {Value: lat.P95 / f, Unit: "ms", Samples: lat.Samples},
		"peak_rss_mb": {Value: peakRSSMB, Unit: "MiB"},
	}
	if lat.P99OK {
		m["op_ms_p99"] = Metric{Value: lat.P99 / f, Unit: "ms", Samples: lat.Samples}
	}
	if ops > 0 {
		m["alloc_kb_per_op"] = Metric{Value: float64(p.AllocBytes) / 1024 / ops, Unit: "KiB"}
		m["mallocs_per_op"] = Metric{Value: float64(p.Mallocs) / ops, Unit: "count"}
	}
	if p.Cycles > 0 && p.Wall > 0 {
		m["sim_mcycles_per_s"] = Metric{Value: float64(p.Cycles) / 1e6 / p.Wall.Seconds() * f, Unit: "Mcycle/s"}
	}
	if p.Attempted > 0 {
		m["fail_share"] = Metric{Value: float64(p.Failed) / float64(p.Attempted), Unit: "ratio", Samples: p.Attempted}
	}
	return m
}

// RawTimes is what the clock read before scaling to the reference host.
type RawTimes struct {
	HostFactor      float64 `json:"host_factor"`
	SetupHostFactor float64 `json:"setup_host_factor"`
	SetupS          float64 `json:"setup_s"`
	WallS           float64 `json:"wall_s"`
	OpsPerS         float64 `json:"ops_per_s"`
	OpMSP50         float64 `json:"op_ms_p50"`
	OpMSP95         float64 `json:"op_ms_p95"`
}

// NewRawTimes records the unscaled times of a pass and its set-up.
func NewRawTimes(p *Pass, setupS, setupFactor float64) *RawTimes {
	lat := Summarize(p.Latencies())
	return &RawTimes{
		HostFactor: p.HostFactor, SetupHostFactor: setupFactor, SetupS: setupS,
		WallS: p.Wall.Seconds(), OpsPerS: p.OpsPerSecond(), OpMSP50: lat.P50, OpMSP95: lat.P95,
	}
}

// DriverLine renders the one-line result the benchmark contract asks
// for: exactly correct, attempted, failed and the metrics — every
// per-layer metric of a traced run, the driver's end-to-end metrics of an
// untraced one.
func DriverLine(r *Run) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	if r.Traced {
		for n, m := range r.Layer {
			metrics[n] = mv{m.Value, m.Unit}
		}
	} else {
		for _, n := range DriverNames() {
			metrics[n] = mv{r.Metrics[n].Value, r.Metrics[n].Unit}
		}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, metrics})
	return string(out)
}

// ReadReport loads a report file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// AppendReport adds runs to the report file at path, creating it when
// missing, so repeated invocations accumulate the several runs -compare
// needs to judge spread.
func AppendReport(path string, env Env, runs []Run) error {
	rep := &Report{Env: env}
	if old, err := ReadReport(path); err == nil {
		rep.Runs = old.Runs
	} else if !os.IsNotExist(err) {
		return err
	}
	rep.Runs = append(rep.Runs, runs...)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// PeakRSSMB returns the calling process's peak resident set (VmHWM) in
// MiB, or 0 where /proc is unavailable.
func PeakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
