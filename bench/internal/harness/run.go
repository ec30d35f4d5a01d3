package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"
)

// Op is what one executed operation reports back to the pass runner.
type Op struct {
	// Class is the op's cost class ("" when the workload has none). A
	// workload with a Quota accepts a fixed number of ops per class, so
	// the measured mix is the same for every seed.
	Class string
	// Digest renders the op's simulated result deterministically; the
	// accepted ops' digests, in op order, hash into sim_digest.
	Digest string
	// Cycles is the simulated time the op consumed (0 when unknown).
	Cycles uint64
	// Err marks a failed op: an oracle mismatch, an error or a panic —
	// never a simulated outcome class.
	Err error
	// Detail is adapter-private and handed back to Instance.Layer.
	Detail any
}

// Instance is one set-up workload: generated inputs plus whatever the
// system under test needs to serve them.
type Instance interface {
	// Count is how many ops the timed pass accepts; Candidates is how
	// many inputs were generated (more than Count only with a Quota).
	Count() int
	Candidates() int
	// Do executes candidate i. Spans it opens are children of span.
	Do(i int, tr *Tracer, span int) Op
	// Verify re-checks candidate i's result against the oracle, outside
	// the timed window.
	Verify(i int, got Op) error
	// Layer adds the workload's own per-layer metrics from a traced run.
	Layer(in TraceInput, out map[string]float64)
	Close()
}

// Workload is one named workload as the adapter exposes it.
type Workload struct {
	Name string
	Why  string
	// OpSpan names the span wrapped around every op of a traced pass.
	OpSpan string
	// Workers is the closed-loop client count (1 = serial).
	Workers int
	// Fanout runs fn(0..n-1) on the given number of workers and returns
	// when all are done; required when Workers > 1.
	Fanout func(workers, n int, fn func(i int))
	// Quota is the share of Count each cost class receives (nil: every
	// candidate is accepted in order). Serial workloads only.
	Quota map[string]float64
	// OracleSamples is how many accepted ops are re-verified.
	OracleSamples int
	// Setup generates the inputs from seed at the given size and builds
	// the instance. scale 1 is the size RefSeconds was sized for.
	Setup func(seed uint64, scale float64) (Instance, error)
	// Serial is the serial workload over the same inputs as this parallel
	// one (nil for serial workloads); a traced run uses it for the
	// speed-up base and for per-op facts only a serial pass can observe.
	Serial *Workload
	// Probes measures fixed-shape micro-costs of the layers in a traced
	// run and stores them, as measured, under their per-layer names; it
	// calls cal.Tick between measurements so the host factor of the probe
	// phase is known.
	Probes func(seed uint64, tr *Tracer, cal *Calibrator, out map[string]float64) error
	// LayerUnits names every per-layer metric a traced run reports, with
	// its unit; a metric the workload does not exercise reads zero. Values
	// in ns, us and ms are scaled to the reference host.
	LayerUnits map[string]string
}

// TraceInput is what a traced run hands to Instance.Layer: the untraced
// and traced passes at the workload's own worker count and, for a
// parallel workload, a serial pass over the same inputs.
type TraceInput struct {
	Base, Traced, Serial *Pass
	Tracer               *Tracer
}

// OpRecord is one accepted op of a pass.
type OpRecord struct {
	Index int
	MS    float64
	Op    Op
}

// Pass is the result of one closed-loop pass over a workload.
type Pass struct {
	Workers int
	Ops     []OpRecord // accepted ops, in candidate order
	// Wall is the timed wall clock: elapsed time minus the time spent in
	// discarded and hung candidates and in host-speed calibration.
	// HostFactor is how much slower than the reference host this host ran
	// during the pass (see hostspeed.go); Wall and the op latencies are
	// raw, the metrics derived from them are divided by it.
	Wall       time.Duration
	HostFactor float64
	// Attempted counts accepted plus failed ops; Discarded the
	// candidates executed but over their class quota.
	Attempted, Failed, Discarded int
	// Hung lists the candidates abandoned after OpLimit.
	Hung                     []int
	Errors                   []string
	Cycles                   uint64
	Digest                   string
	AllocBytes, Mallocs      uint64
	GCCycles                 uint32
	GCPauseNS                uint64
	GCCPUSeconds, CPUSeconds float64
}

// OpsPerSecond is completed ops per second of timed wall, as measured
// (not scaled to the reference host).
func (p *Pass) OpsPerSecond() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(len(p.Ops)) / p.Wall.Seconds()
}

// Latencies returns the accepted ops' latencies in milliseconds.
func (p *Pass) Latencies() []float64 {
	ms := make([]float64, len(p.Ops))
	for i, r := range p.Ops {
		ms[i] = r.MS
	}
	return ms
}

// OpLimit is how long one op may stay in flight before it is abandoned
// as hung. The slowest op of any workload takes well under a second.
// A variable only so that tests can shorten it.
var OpLimit = 3 * time.Second

// Guarded runs fn on a goroutine of its own and reports whether it
// returned within limit. When it did not, the goroutine is abandoned: the
// system under test can deadlock inside an op (see the README's known
// defect), and a deadlocked goroutine can only be left behind. The
// pending timer also keeps the Go runtime from aborting the process with
// "all goroutines are asleep".
func Guarded(limit time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

const maxErrors = 8

// quotaCounts turns class shares into whole counts summing to n; the
// rounding remainder goes to the largest class.
func quotaCounts(shares map[string]float64, n int) map[string]int {
	if shares == nil {
		return nil
	}
	out := make(map[string]int, len(shares))
	sum, largest := 0, ""
	for class, share := range shares {
		out[class] = int(share * float64(n))
		sum += out[class]
		if largest == "" || share > shares[largest] || (share == shares[largest] && class < largest) {
			largest = class
		}
	}
	out[largest] += n - sum
	return out
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// readAllocs samples the cumulative allocation counters without
// stopping the world. Serial passes only: the sample slice is shared.
func readAllocs() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// RunPass executes one closed-loop pass: every client issues its next
// op only when the previous one has completed. The op count is fixed by
// the instance, never by the clock, so the simulated results of a seed
// repeat exactly.
//
// Two kinds of candidate are executed but left out of the measurement,
// their time and allocations subtracted: ones over their class quota,
// and ones that hang the system under test, which are abandoned after
// OpLimit and listed in Pass.Hung.
func RunPass(w *Workload, inst Instance, tr *Tracer) *Pass {
	p := &Pass{Workers: w.Workers}
	quota := quotaCounts(w.Quota, inst.Count())
	if quota != nil && w.Workers > 1 {
		panic("harness: class quotas need a serial workload")
	}
	// One processor per closed-loop client, whatever the caller runs at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.Workers))
	// Host speed is tracked in serial passes only: with several
	// processors the calibrator's hand-offs cross OS threads and stop
	// following the workload (see the README's steadiness notes), so a
	// parallel pass reports its times as measured, at host factor 1.
	var cal *Calibrator
	if w.Workers == 1 {
		cal = NewCalibrator()
		defer cal.Stop()
	}
	passSpan := tr.Begin("pass", NoSpan, -1)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	calib0 := cal.Total()
	start := time.Now()

	type rec struct {
		ms   float64
		op   Op
		hung bool
	}
	one := func(i int) rec {
		var r rec
		sp := tr.Begin(w.OpSpan, passSpan, i)
		r.hung = !Guarded(OpLimit, func() {
			defer func() {
				if v := recover(); v != nil {
					r.op = Op{Err: fmt.Errorf("panic: %v", v)}
				}
			}()
			t := time.Now()
			r.op = inst.Do(i, tr, sp)
			r.ms = float64(time.Since(t).Nanoseconds()) / 1e6
		})
		tr.End(sp)
		if r.hung {
			// The abandoned goroutine owns r from here on.
			return rec{hung: true}
		}
		return r
	}
	fail := func(i int, err error) {
		p.Failed++
		if len(p.Errors) < maxErrors {
			p.Errors = append(p.Errors, fmt.Sprintf("op %d: %v", i, err))
		}
	}

	var lostWall time.Duration
	var lostBytes, lostObjs uint64
	if w.Workers > 1 {
		recs := make([]rec, inst.Count())
		w.Fanout(w.Workers, len(recs), func(i int) { recs[i] = one(i) })
		for i, r := range recs {
			switch {
			case r.hung:
				p.Hung = append(p.Hung, i)
				// One of the workers sat out OpLimit while the others went on.
				lostWall += OpLimit / time.Duration(w.Workers)
			case r.op.Err != nil:
				fail(i, r.op.Err)
			default:
				p.Ops = append(p.Ops, OpRecord{Index: i, MS: r.ms, Op: r.op})
			}
		}
	} else {
		left := inst.Count()
		for i := 0; i < inst.Candidates() && left > 0; i++ {
			b0, o0 := readAllocs()
			t := time.Now()
			r := one(i)
			if r.hung || (r.op.Err == nil && quota != nil && quota[r.op.Class] <= 0) {
				b1, o1 := readAllocs()
				lostWall += time.Since(t)
				lostBytes += b1 - b0
				lostObjs += o1 - o0
				if r.hung {
					p.Hung = append(p.Hung, i)
				} else {
					p.Discarded++
				}
				continue
			}
			cal.Tick()
			left--
			if r.op.Err != nil {
				fail(i, r.op.Err)
				continue
			}
			if quota != nil {
				quota[r.op.Class]--
			}
			p.Ops = append(p.Ops, OpRecord{Index: i, MS: r.ms, Op: r.op})
		}
		if left > 0 && len(p.Hung) == 0 {
			fail(-1, fmt.Errorf("%d candidates could not fill the pass: %d ops short (quota left %v)", inst.Candidates(), left, quota))
		}
	}

	elapsed := time.Since(start)
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	tr.End(passSpan)

	p.Wall = elapsed - lostWall - (cal.Total() - calib0)
	p.HostFactor = cal.Factor()

	p.Attempted = len(p.Ops) + p.Failed
	p.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc - lostBytes
	p.Mallocs = ms1.Mallocs - ms0.Mallocs - lostObjs
	p.GCCycles = ms1.NumGC - ms0.NumGC
	p.GCPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	p.GCCPUSeconds, p.CPUSeconds = gc1-gc0, cpu1-cpu0

	h := sha256.New()
	for _, r := range p.Ops {
		p.Cycles += r.Op.Cycles
		io.WriteString(h, r.Op.Digest)
		io.WriteString(h, "\n")
	}
	p.Digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// Oracle re-verifies n evenly spaced accepted ops of a pass outside the
// timed window and returns the failures.
func Oracle(inst Instance, p *Pass, n int) []error {
	if n > len(p.Ops) {
		n = len(p.Ops)
	}
	var errs []error
	for k := 0; k < n; k++ {
		r := p.Ops[k*len(p.Ops)/n]
		var err error
		if !Guarded(OpLimit, func() { err = inst.Verify(r.Index, r.Op) }) {
			err = fmt.Errorf("no result after %v", OpLimit)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("oracle, op %d: %w", r.Index, err))
		}
	}
	return errs
}
