package sut

import (
	"encoding/json"
	"os"
	"testing"

	"repro/bench/internal/harness"
)

// smokeScale is 1/50 of the size BENCHMARK.json's run_seconds gives.
const smokeScale = 1.0 / 50

// TestSmoke runs all five workloads twice at 1/50 size with the oracle on:
// no op may fail, every driver metric must be non-zero, and the two runs
// must digest identically.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var digest string
			for r := 0; r < 2; r++ {
				run, _, err := harness.Execute(w, harness.Options{Seed: 42, Scale: smokeScale, Setups: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !run.Correct() || run.FailShare != 0 || run.Ops == 0 {
					t.Fatalf("ops %d, failed %d of %d, errors %v", run.Ops, run.Failed, run.Attempted, run.Errors)
				}
				for _, name := range harness.DriverNames() {
					if run.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v", name, run.Metrics[name].Value)
					}
				}
				if r > 0 && run.SimDigest != digest {
					t.Errorf("sim_digest differs between two runs: %s vs %s", digest, run.SimDigest)
				}
				digest = run.SimDigest
			}
		})
	}
}

// TestTracedSmoke makes a traced run of the parallel campaign workload —
// the one that exercises every pass kind, the probes and the shadow pass —
// and checks the per-layer table and the span tree.
func TestTracedSmoke(t *testing.T) {
	w := Workloads()[1]
	run, spans, err := harness.Execute(w, harness.Options{Seed: 42, Scale: 4 * smokeScale, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct() {
		t.Fatalf("failed %d of %d: %v", run.Failed, run.Attempted, run.Errors)
	}
	if len(run.Layer) != len(LayerUnits()) {
		t.Fatalf("%d per-layer metrics, want %d", len(run.Layer), len(LayerUnits()))
	}
	for _, name := range []string{
		"faultinject.runs", "faultinject.ladder_forks", "faultinject.profile_ms", "faultinject.run_ms_p50.full",
		"boot.fork_us.boot", "boot.cold_boot_ms", "kernel.dispatch_ns", "memlog.store_open_ns", "memlog.rollback_us",
		"core.recovery_us", "audit.check_us", "image.encode_us.raw", "image.flate_ratio", "image.replay_ms",
		"parallel.speedup", "trace.spans",
	} {
		if run.Layer[name].Value <= 0 {
			t.Errorf("%s = %v", name, run.Layer[name].Value)
		}
	}
	if got := run.Layer["parallel.workers"].Value; got != float64(ParWorkers()) {
		t.Errorf("parallel.workers = %v", got)
	}

	self := map[string]harness.SelfStat{}
	for _, s := range run.Self {
		self[s.Name] = s
	}
	shadow := self["shadow.run"]
	if shadow.Count == 0 {
		t.Fatal("no shadow.run spans")
	}
	var phases int64
	for _, name := range []string{"boot.fork", "kernel.run_to_barrier", "boot.fingerprint", "audit.check", "boot.shutdown"} {
		phases += self[name].SelfNS
	}
	if float64(phases) < 0.9*float64(shadow.TotalNS) {
		t.Errorf("shadow phases cover %d of %d ns of shadow.run", phases, shadow.TotalNS)
	}
	if int(run.Layer["trace.spans"].Value) != len(spans) {
		t.Errorf("trace.spans %v, %d spans returned", run.Layer["trace.spans"].Value, len(spans))
	}
}

func TestSwitchSet(t *testing.T) {
	if name := SwitchSet(); name != "" {
		t.Skipf("%s is set in the test environment", name)
	}
	t.Setenv("OSIRIS_NO_ELIDE", "")
	if got := SwitchSet(); got != "OSIRIS_NO_ELIDE" {
		t.Errorf("SwitchSet() = %q with OSIRIS_NO_ELIDE set", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables the
// program prints from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != harness.RefSeconds {
		t.Errorf("run_seconds %d, the work counts are sized for %d", spec.RunSeconds, harness.RefSeconds)
	}
	ws := Workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, %d exist", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q, want %q", i, spec.Workloads[i].Name, w.Name)
		}
	}

	defs := map[string]harness.MetricDef{}
	for _, d := range harness.EndToEnd {
		defs[d.Name] = d
	}
	if len(spec.EndToEnd) != len(harness.DriverNames()) {
		t.Errorf("%d end-to-end metrics listed, %d driver metrics exist", len(spec.EndToEnd), len(harness.DriverNames()))
	}
	for _, m := range spec.EndToEnd {
		d, ok := defs[m.Name]
		if !ok || !d.Driver {
			t.Errorf("end-to-end metric %q is not a driver metric", m.Name)
			continue
		}
		if m.Unit != d.Unit || m.Better != d.Better || m.Bound == nil || *m.Bound != d.Bound {
			t.Errorf("%s: listed %+v, defined %+v", m.Name, m, d)
		}
	}
	units := LayerUnits()
	if len(spec.PerLayer) != len(units) {
		t.Errorf("%d per-layer metrics listed, %d exist", len(spec.PerLayer), len(units))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := units[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %q [%s]: the program has unit %q (known: %v)", m.Name, m.Unit, unit, ok)
		}
		if m.Bound != nil {
			t.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
}
