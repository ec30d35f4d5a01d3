package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of one (workload, metric) comparison.
const (
	VerdictBetter     = "better"
	VerdictWithin     = "within"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// CompareRow is one (workload, metric) line of a comparison.
type CompareRow struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians over the file's runs
	RunsA, RunsB           int
	// Delta is (B-A)/A; Bound the metric's regression bound.
	Delta, Bound float64
	Verdict      string
}

// Comparison is the outcome of comparing two reports.
type Comparison struct {
	Rows []CompareRow
	// Drift lists sim_digest mismatches between runs of the same
	// workload, seed and scale in files marked as the same commit.
	Drift []string
}

// Failed reports whether the comparison must exit non-zero: a metric
// got worse (a fail_share increase is always worse) or the simulated
// results drifted within one commit.
func (c *Comparison) Failed() bool {
	for _, r := range c.Rows {
		if r.Verdict == VerdictWorse {
			return true
		}
	}
	return len(c.Drift) > 0
}

func values(runs []Run, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// worseBy is how much b is worse than a as a share of a (negative when
// b is better).
func worseBy(def MetricDef, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		return -d
	}
	return d
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(def MetricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(def, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

func verdict(def MetricDef, a, b []float64) string {
	ma, mb := Median(a), Median(b)
	w := worseBy(def, ma, mb)
	if def.Name == "fail_share" {
		switch {
		case mb > ma:
			return VerdictWorse
		case mb < ma:
			return VerdictBetter
		}
		return VerdictWithin
	}
	if Spread(a) > def.Bound || Spread(b) > def.Bound {
		if allBetter(def, a, b) {
			return VerdictBetter
		}
		return VerdictUnresolved
	}
	switch {
	case w > def.Bound && math.Abs(mb-ma) > def.Floor:
		return VerdictWorse
	case w < -def.Bound:
		return VerdictBetter
	}
	return VerdictWithin
}

// Compare judges report b against baseline a: per workload and metric,
// the medians over each file's untraced runs, the relative change, the
// bound and a verdict.
func Compare(a, b *Report) *Comparison {
	group := func(r *Report) map[string][]Run {
		g := make(map[string][]Run)
		for _, run := range r.Runs {
			if !run.Traced {
				g[run.Workload] = append(g[run.Workload], run)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var names []string
	for w := range ga {
		if _, ok := gb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)

	c := &Comparison{}
	for _, w := range names {
		for _, def := range EndToEnd {
			va, vb := values(ga[w], def.Name), values(gb[w], def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := Median(va), Median(vb)
			delta := 0.0
			if ma != 0 {
				delta = (mb - ma) / math.Abs(ma)
			}
			c.Rows = append(c.Rows, CompareRow{
				Workload: w, Metric: def.Name, Unit: def.Unit,
				A: ma, B: mb, RunsA: len(va), RunsB: len(vb),
				Delta: delta, Bound: def.Bound, Verdict: verdict(def, va, vb),
			})
		}
		if a.Env.Commit != "" && a.Env.Commit != "unknown" && a.Env.Commit == b.Env.Commit {
			for _, ra := range ga[w] {
				for _, rb := range gb[w] {
					if ra.Seed == rb.Seed && ra.Scale == rb.Scale && ra.SimDigest != rb.SimDigest {
						c.Drift = append(c.Drift, fmt.Sprintf("%s seed %d: sim_digest %.12s != %.12s at commit %s",
							w, ra.Seed, ra.SimDigest, rb.SimDigest, a.Env.Commit))
					}
				}
			}
		}
	}
	return c
}

// Print renders the comparison as an aligned table.
func (c *Comparison) Print(w io.Writer) {
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "A (median)", "B (median)", "delta", "bound", "verdict")
	for _, r := range c.Rows {
		fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %+7.1f%% %6.0f%%  %s  [%s, runs %d/%d]\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Delta, 100*r.Bound, r.Verdict, r.Unit, r.RunsA, r.RunsB)
	}
	for _, d := range c.Drift {
		fmt.Fprintln(w, "DRIFT:", d)
	}
}
