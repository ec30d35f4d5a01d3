package harness

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending: Summarize must sort
	}
	return v
}

func TestPercentileSelection(t *testing.T) {
	lat := Summarize(ramp(1000))
	if lat.P50 != 500 || lat.P95 != 950 || lat.P99 != 990 || !lat.P99OK {
		t.Fatalf("nearest-rank percentiles of 1..1000: %+v", lat)
	}
	if Summarize(ramp(999)).P99OK {
		t.Fatal("p99 offered with fewer than ten samples beyond it")
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("percentile of an empty sample = %v", got)
	}

	pass := func(n int) *Pass {
		p := &Pass{Wall: time.Second, HostFactor: 1}
		for i, ms := range ramp(n) {
			p.Ops = append(p.Ops, OpRecord{Index: i, MS: ms})
		}
		return p
	}
	if _, ok := EndToEndMetrics(pass(999), 1, 1)["op_ms_p99"]; ok {
		t.Error("op_ms_p99 reported below 1000 samples")
	}
	m := EndToEndMetrics(pass(1000), 1, 1)
	if m["op_ms_p99"].Value != 990 || m["op_ms_p99"].Samples != 1000 {
		t.Errorf("op_ms_p99 at 1000 samples: %+v", m["op_ms_p99"])
	}
	if m["ops_per_s"].Value != 1000 {
		t.Errorf("ops_per_s = %v, want 1000", m["ops_per_s"].Value)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) of these inputs, computed with Python.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 9.7, 4.4, 5.0}, 2.15, 7.35},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := Quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60], which overlap, and
	// c [90,120], which outlives it; a has one child of its own.
	spans := []Span{
		{ID: 0, Parent: NoSpan, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 1, Name: "leaf", Start: 15, End: 25},
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: NoSpan, Name: "a", Start: 200, End: 205},
	}
	want := map[string]SelfStat{
		"root": {Name: "root", Count: 1, TotalNS: 100, SelfNS: 100 - 50 - 10},
		"a":    {Name: "a", Count: 2, TotalNS: 35, SelfNS: 20 + 5},
		"b":    {Name: "b", Count: 1, TotalNS: 30, SelfNS: 30},
		"leaf": {Name: "leaf", Count: 1, TotalNS: 10, SelfNS: 10},
		"c":    {Name: "c", Count: 1, TotalNS: 30, SelfNS: 30},
	}
	got := SelfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("%d names, want %d: %+v", len(got), len(want), got)
	}
	for _, st := range got {
		if st != want[st.Name] {
			t.Errorf("%s: got %+v, want %+v", st.Name, st, want[st.Name])
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", NoSpan, 0)
	tr.End(id)
	if id != NoSpan || tr.Spans() != nil {
		t.Fatal("a nil tracer recorded something")
	}
	live := NewTracer()
	parent := live.Begin("op", NoSpan, 7)
	live.End(live.Begin("child", parent, 7))
	live.End(parent)
	s := live.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Op != 7 || s[0].End < s[1].End {
		t.Fatalf("spans: %+v", s)
	}
}

func TestQuotaCounts(t *testing.T) {
	shares := map[string]float64{"run": 0.975, "hang": 0.025}
	if got := quotaCounts(shares, 400); got["run"] != 390 || got["hang"] != 10 {
		t.Errorf("400 ops: %v", got)
	}
	if got := quotaCounts(shares, 8); got["run"] != 8 || got["hang"] != 0 {
		t.Errorf("8 ops: %v", got)
	}
	if quotaCounts(nil, 8) != nil {
		t.Error("no shares must mean no quota")
	}
}

// fakeInstance serves ops whose class, failure and hanging are fixed by
// the candidate index.
type fakeInstance struct {
	count, candidates int
	class             func(i int) string
	bad, hang, panics map[int]bool
}

func (f *fakeInstance) Count() int      { return f.count }
func (f *fakeInstance) Candidates() int { return f.candidates }
func (f *fakeInstance) Close()          {}
func (f *fakeInstance) Do(i int, _ *Tracer, _ int) Op {
	if f.hang[i] {
		select {}
	}
	if f.bad[i] {
		return Op{Err: fmt.Errorf("bad op")}
	}
	if f.panics[i] {
		panic("op blew up")
	}
	return Op{Class: f.class(i), Digest: fmt.Sprint("op", i), Cycles: 10}
}
func (f *fakeInstance) Verify(i int, got Op) error {
	if got.Digest != fmt.Sprint("op", i) {
		return fmt.Errorf("digest %q", got.Digest)
	}
	return nil
}
func (f *fakeInstance) Layer(TraceInput, map[string]float64) {}

func TestRunPassQuotaFailuresAndHangs(t *testing.T) {
	defer func(d time.Duration) { OpLimit = d }(OpLimit)
	OpLimit = 50 * time.Millisecond

	w := &Workload{Name: "fake", OpSpan: "fake.op", Workers: 1, Quota: map[string]float64{"a": 0.5, "b": 0.5}, OracleSamples: 4}
	inst := &fakeInstance{
		count: 8, candidates: 40,
		// Three candidates in four are class a: most of them are over quota.
		class: func(i int) string {
			if i%4 == 3 {
				return "b"
			}
			return "a"
		},
		bad:  map[int]bool{1: true},
		hang: map[int]bool{2: true},
	}
	tr := NewTracer()
	p := RunPass(w, inst, tr)
	if len(p.Ops) != 7 || p.Failed != 1 || p.Attempted != 8 {
		t.Fatalf("ops %d failed %d attempted %d, want 7/1/8", len(p.Ops), p.Failed, p.Attempted)
	}
	if len(p.Hung) != 1 || p.Hung[0] != 2 {
		t.Fatalf("hung %v, want [2]", p.Hung)
	}
	classes := map[string]int{}
	for _, r := range p.Ops {
		classes[r.Op.Class]++
	}
	// The failed op used up a slot of the pass but of neither class: a
	// fills its quota of four, b ends one short, and the three class-a
	// candidates met after that are discarded.
	if classes["a"] != 4 || classes["b"] != 3 || p.Discarded != 3 {
		t.Fatalf("accepted classes %v, discarded %d", classes, p.Discarded)
	}
	if p.Cycles != 70 {
		t.Errorf("cycles %d, want 70", p.Cycles)
	}
	if again := RunPass(w, inst, nil); again.Digest != p.Digest {
		t.Error("two passes over the same inputs digest differently")
	}
	if errs := Oracle(inst, p, w.OracleSamples); len(errs) != 0 {
		t.Errorf("oracle: %v", errs)
	}
	ops := 0
	for _, s := range tr.Spans() {
		if s.Name == "fake.op" {
			ops++
		}
	}
	if ops != len(p.Ops)+p.Failed+p.Discarded+len(p.Hung) {
		t.Errorf("%d op spans for %d executed candidates", ops, len(p.Ops)+p.Failed+p.Discarded+len(p.Hung))
	}
}

func TestRunPassPanicIsAFailedOp(t *testing.T) {
	w := &Workload{Name: "fake", OpSpan: "fake.op", Workers: 1}
	inst := &fakeInstance{count: 5, candidates: 5, class: func(int) string { return "" }, panics: map[int]bool{3: true}}
	p := RunPass(w, inst, nil)
	if len(p.Ops) != 4 || p.Failed != 1 || len(p.Errors) != 1 || !strings.Contains(p.Errors[0], "op 3: panic: op blew up") {
		t.Fatalf("ops %d failed %d errors %v", len(p.Ops), p.Failed, p.Errors)
	}
}

func TestRunPassParallel(t *testing.T) {
	fan := func(workers, n int, fn func(int)) {
		done := make(chan struct{})
		for wkr := 0; wkr < workers; wkr++ {
			go func(wkr int) {
				for i := wkr; i < n; i += workers {
					fn(i)
				}
				done <- struct{}{}
			}(wkr)
		}
		for wkr := 0; wkr < workers; wkr++ {
			<-done
		}
	}
	serial := &Workload{Name: "fake", OpSpan: "fake.op", Workers: 1}
	par := &Workload{Name: "fake_par", OpSpan: "fake.op", Workers: 3, Fanout: fan}
	inst := &fakeInstance{count: 50, candidates: 50, class: func(int) string { return "" }}
	a, b := RunPass(serial, inst, nil), RunPass(par, inst, nil)
	if len(b.Ops) != 50 || a.Digest != b.Digest {
		t.Fatalf("parallel pass: %d ops, digest equal %v", len(b.Ops), a.Digest == b.Digest)
	}
}

func report(commit string, runs ...Run) *Report {
	return &Report{Env: Env{Commit: commit}, Runs: runs}
}

func runOf(workload string, digest string, metrics map[string]float64) Run {
	r := Run{Workload: workload, Seed: 1, Scale: 1, SimDigest: digest, Metrics: map[string]Metric{}}
	for name, v := range metrics {
		r.Metrics[name] = Metric{Value: v}
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]float64{"ops_per_s": 100, "op_ms_p50": 10, "alloc_kb_per_op": 1000, "setup_s": 0.020, "fail_share": 0}
	with := func(changes map[string]float64) map[string]float64 {
		m := map[string]float64{}
		for k, v := range base {
			m[k] = v
		}
		for k, v := range changes {
			m[k] = v
		}
		return m
	}
	dir := t.TempDir()
	write := func(name string, rep *Report) *Report {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := AppendReport(path, rep.Env, rep.Runs); err != nil {
			t.Fatal(err)
		}
		got, err := ReadReport(path)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	a := write("a.json", report("c1", runOf("w", "d1", base)))
	b := write("b.json", report("c2", runOf("w", "d2", with(map[string]float64{
		"ops_per_s":       50,    // half the throughput: worse
		"op_ms_p50":       5,     // half the latency: better
		"alloc_kb_per_op": 1010,  // +1 %: within
		"setup_s":         0.040, // doubled, but under the absolute floor: within
	}))))
	c := Compare(a, b)
	want := map[string]string{
		"ops_per_s": VerdictWorse, "op_ms_p50": VerdictBetter, "alloc_kb_per_op": VerdictWithin,
		"setup_s": VerdictWithin, "fail_share": VerdictWithin,
	}
	for _, row := range c.Rows {
		if row.Verdict != want[row.Metric] {
			t.Errorf("%s: verdict %s, want %s", row.Metric, row.Verdict, want[row.Metric])
		}
	}
	if len(c.Rows) != len(want) || !c.Failed() || len(c.Drift) != 0 {
		t.Errorf("rows %d, failed %v, drift %v", len(c.Rows), c.Failed(), c.Drift)
	}
	var sb strings.Builder
	c.Print(&sb)
	if !strings.Contains(sb.String(), "worse") || !strings.Contains(sb.String(), "ops_per_s") {
		t.Errorf("printed comparison lacks the verdict:\n%s", sb.String())
	}

	// Any fail_share increase is worse, whatever the other metrics say.
	if c := Compare(a, report("c2", runOf("w", "d1", with(map[string]float64{"fail_share": 0.001})))); !c.Failed() {
		t.Error("a fail_share increase passed")
	}
	// The same commit must not drift; different commits may.
	if c := Compare(a, report("c1", runOf("w", "other", base))); len(c.Drift) != 1 || !c.Failed() {
		t.Errorf("sim_digest drift within one commit not flagged: %v", c.Drift)
	}
	if c := Compare(a, report("c1", runOf("w", "d1", base))); c.Failed() {
		t.Error("identical reports compare as failed")
	}

	// Several runs whose spread exceeds the bound: unresolved, unless every
	// run of B beats every run of A.
	noisy := func(vals ...float64) *Report {
		rep := report("c1")
		for _, v := range vals {
			rep.Runs = append(rep.Runs, runOf("w", "d1", with(map[string]float64{"ops_per_s": v})))
		}
		return rep
	}
	verdictOf := func(c *Comparison, metric string) string {
		for _, row := range c.Rows {
			if row.Metric == metric {
				return row.Verdict
			}
		}
		return ""
	}
	if v := verdictOf(Compare(noisy(60, 100, 140, 180), noisy(50, 90, 130, 170)), "ops_per_s"); v != VerdictUnresolved {
		t.Errorf("noisy runs: verdict %s, want unresolved", v)
	}
	if v := verdictOf(Compare(noisy(60, 100, 140, 180), noisy(200, 300, 400, 500)), "ops_per_s"); v != VerdictBetter {
		t.Errorf("noisy but disjoint runs: verdict %s, want better", v)
	}
}

func TestGuarded(t *testing.T) {
	if !Guarded(time.Second, func() {}) {
		t.Error("a returning call reported as hung")
	}
	if Guarded(10*time.Millisecond, func() { select {} }) {
		t.Error("a blocked call reported as returned")
	}
}

func TestDriverLine(t *testing.T) {
	r := &Run{Traced: true, Attempted: 3, Layer: map[string]Metric{"trace.spans": {Value: 1.5, Unit: "count", Samples: 3}}}
	got := DriverLine(r)
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"trace.spans":{"value":1.5,"unit":"count"}}}`
	if got != want {
		t.Errorf("driver line\n got %s\nwant %s", got, want)
	}
	r = &Run{Attempted: 3, Failed: 1, Metrics: map[string]Metric{"ops_per_s": {Value: 2, Unit: "1/s"}, "op_ms_p99": {Value: 9, Unit: "ms"}}}
	got = DriverLine(r)
	if !strings.HasPrefix(got, `{"correct":false`) {
		t.Error("a run with a failed op reads correct")
	}
	if !strings.Contains(got, `"ops_per_s":{"value":2,"unit":"1/s"}`) || strings.Contains(got, "op_ms_p99") || strings.Count(got, `"unit"`) != len(DriverNames()) {
		t.Errorf("untraced driver line must carry exactly the driver metrics: %s", got)
	}
}
