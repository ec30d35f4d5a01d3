// Package harness is the program-agnostic half of osirisbench: the
// closed-loop pass runner, spans and self-time arithmetic, percentile
// selection, process statistics, the report format and -compare. It
// knows nothing about the simulator; bench/internal/sut adapts it.
package harness

import (
	"math"
	"sort"
)

// MinTailSamples is the sample count below which a p99 is withheld: a
// percentile is reported only when at least ten samples lie beyond it.
const MinTailSamples = 1000

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample. It returns 0 for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Latency summarizes per-op latencies in milliseconds.
type Latency struct {
	Samples       int
	P50, P95, P99 float64
	// P99OK reports whether the sample is large enough for the p99 to
	// have ten samples beyond it; when false the p99 is withheld.
	P99OK bool
}

// Summarize computes the latency summary of ms (not modified).
func Summarize(ms []float64) Latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return Latency{
		Samples: len(s),
		P50:     Percentile(s, 50),
		P95:     Percentile(s, 95),
		P99:     Percentile(s, 99),
		P99OK:   len(s) >= MinTailSamples,
	}
}

// Median returns the median of v (0 when empty); v is not modified.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) (exclusive method) does, so a
// spread computed here matches the one the driver computes. It needs at
// least two values.
func Quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile distance of v as a share of its median —
// the steadiness figure the benchmark contract is judged by.
func Spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	med := Median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(v)
	return (q3 - q1) / math.Abs(med)
}
