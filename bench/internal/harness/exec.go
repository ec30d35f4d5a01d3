package harness

import (
	"fmt"
	"runtime"
	"time"
)

// RefSeconds is the --seconds value the workloads' work counts were
// sized for: at scale = seconds/RefSeconds = 1 a timed pass takes about
// that long on the reference box. The work is a fixed count derived from
// the scale, never a wall-clock budget, so the simulated results of a
// (seed, seconds) pair repeat exactly.
const RefSeconds = 10

// setupCalibUnits is how many host-speed samples follow each set-up.
const setupCalibUnits = 10

// TraceShare is the share of a workload's op count a traced run uses.
const TraceShare = 0.25

// Options are the knobs of one Execute call.
type Options struct {
	Seed  uint64
	Scale float64
	Trace bool
	// Setups is how many times set-up is performed; setup_s is the median.
	Setups int
}

// Execute performs one run of a workload: set-up, the timed closed-loop
// pass, and the output oracle outside the timed window. A traced run
// works at TraceShare of the size and reports per-layer metrics and
// spans instead of end-to-end metrics.
func Execute(w *Workload, opt Options) (*Run, []Span, error) {
	// Everything outside a timed pass (set-up, oracle, probes) runs on one
	// processor; a pass runs on one per closed-loop client. The simulator
	// hands control between goroutines at every simulated context switch,
	// and with spare processors those hand-offs cross OS threads, which
	// makes serial work a third slower and much noisier (see the README).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := &Run{Workload: w.Name, Seed: opt.Seed, Scale: opt.Scale, Workers: w.Workers, Traced: opt.Trace}
	if opt.Trace {
		spans, err := executeTraced(w, opt, run)
		return run, spans, err
	}

	setups := opt.Setups
	if setups < 1 {
		setups = 1
	}
	var inst Instance
	var setupS []float64
	cal := NewCalibrator()
	for r := 0; r < setups; r++ {
		if inst != nil {
			inst.Close()
		}
		t := time.Now()
		var err error
		if inst, err = w.Setup(opt.Seed, opt.Scale); err != nil {
			return run, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		for k := 0; k < setupCalibUnits; k++ {
			cal.Sample()
		}
	}
	cal.Stop()
	defer inst.Close()

	pass := RunPass(w, inst, nil)
	rss := PeakRSSMB()
	checkPass(w, inst, pass, run)
	run.Metrics = EndToEndMetrics(pass, Median(setupS)/cal.Factor(), rss)
	run.Raw = NewRawTimes(pass, Median(setupS), cal.Factor())
	return run, nil, nil
}

// checkPass runs the oracle over a pass and fills in the run's op
// counts, failures and digest.
func checkPass(w *Workload, inst Instance, p *Pass, run *Run) {
	for _, err := range Oracle(inst, p, w.OracleSamples) {
		p.Failed++
		p.Attempted++
		if len(p.Errors) < maxErrors {
			p.Errors = append(p.Errors, err.Error())
		}
	}
	run.Ops = len(p.Ops)
	run.Attempted = p.Attempted
	run.Failed = p.Failed
	run.Discarded = p.Discarded
	run.HungOps = p.Hung
	run.Errors = p.Errors
	run.SimDigest = p.Digest
	if p.Attempted > 0 {
		run.FailShare = float64(p.Failed) / float64(p.Attempted)
	}
}

// executeTraced makes the passes of a traced run — untraced and traced
// at the workload's own worker count, plus a serial pass over the same
// inputs for a parallel workload — then the fixed-shape probes, and
// derives the per-layer metrics.
func executeTraced(w *Workload, opt Options, run *Run) ([]Span, error) {
	scale := opt.Scale * TraceShare
	run.Scale = scale
	tr := NewTracer()

	// Every pass gets a fresh instance: serving state built lazily inside
	// a pass (ladders, caches) must not carry over into the next.
	pass := func(w *Workload, tr *Tracer, phase string) (*Pass, Instance, error) {
		inst, err := w.Setup(opt.Seed, scale)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up (%s): %w", phase, err)
		}
		return RunPass(w, inst, tr), inst, nil
	}

	in := TraceInput{Tracer: tr}
	base, inst, err := pass(w, nil, "untraced pass")
	if err != nil {
		return nil, err
	}
	inst.Close()
	in.Base = base
	if w.Serial != nil {
		// The serial twin's spans go to a tracer of its own: they describe
		// another workload and would double every per-op span name.
		serial, inst, err := pass(w.Serial, NewTracer(), "serial pass")
		if err != nil {
			return nil, err
		}
		inst.Close()
		in.Serial = serial
	}
	traced, inst, err := pass(w, tr, "traced pass")
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	in.Traced = traced

	checkPass(w, inst, traced, run)
	if base.Digest != traced.Digest {
		run.Failed++
		run.Attempted++
		run.Errors = append(run.Errors, fmt.Sprintf("sim_digest of the traced pass %.12s differs from the untraced pass %.12s", traced.Digest, base.Digest))
	}

	layer := make(map[string]float64)
	if w.Probes != nil {
		cal := NewCalibrator()
		err := w.Probes(opt.Seed, tr, cal, layer)
		cal.Stop()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for name := range layer {
			if u := w.LayerUnits[name]; u == "ns" || u == "us" || u == "ms" {
				layer[name] /= cal.Factor()
			}
		}
	}
	inst.Layer(in, layer)

	layer["parallel.workers"] = float64(w.Workers)
	if in.Serial != nil && in.Serial.OpsPerSecond() > 0 {
		// Both as measured, a few seconds apart: only the serial pass has
		// a host factor.
		layer["parallel.speedup"] = base.OpsPerSecond() / in.Serial.OpsPerSecond()
		layer["parallel.efficiency"] = layer["parallel.speedup"] / float64(w.Workers)
	} else {
		layer["parallel.speedup"], layer["parallel.efficiency"] = 1, 1
	}
	layer["runtime.gc_cycles"] = float64(traced.GCCycles)
	layer["runtime.gc_pause_ms"] = float64(traced.GCPauseNS) / 1e6
	if traced.CPUSeconds > 0 {
		layer["runtime.gc_cpu_share"] = traced.GCCPUSeconds / traced.CPUSeconds
	}
	spans := tr.Spans()
	layer["trace.spans"] = float64(len(spans))
	if b, t := base.OpsPerSecond()*base.HostFactor, traced.OpsPerSecond()*traced.HostFactor; b > 0 {
		layer["trace.overhead_pct"] = 100 * (b - t) / b
	}

	run.Layer = make(map[string]Metric, len(w.LayerUnits))
	for name, unit := range w.LayerUnits {
		run.Layer[name] = Metric{Value: layer[name], Unit: unit}
	}
	for name := range layer {
		if _, ok := w.LayerUnits[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not in the workload's table", name)
		}
	}
	run.Self = SelfTimes(spans)
	return spans, nil
}
