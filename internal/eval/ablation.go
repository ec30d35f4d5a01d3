package eval

import (
	"fmt"
	"strings"

	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/unixbench"
)

// AblationRow compares the slowdown of the two checkpointing strategies
// on one benchmark.
type AblationRow struct {
	Name              string
	UndoLog, FullCopy float64 // slowdown vs uninstrumented baseline
}

// Ablation quantifies the paper's §IV-C design rationale: per-request
// undo logging versus full-state checkpointing at OS request rates.
type Ablation struct {
	Rows                    []AblationRow
	GeoUndoLog, GeoFullCopy float64
}

// RunAblationCheckpointing measures both strategies against the
// uninstrumented baseline under the enhanced policy. All three
// configurations share the parallel engine's worker pool.
func RunAblationCheckpointing(sc Scale) Ablation {
	grouped := runBenchMatrix(sc.Workers,
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.Baseline,
			Seed: sc.Seed, IterScale: sc.IterScale,
		},
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.Optimized,
			Seed: sc.Seed, IterScale: sc.IterScale,
		},
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.FullCopy,
			Seed: sc.Seed, IterScale: sc.IterScale,
		})
	base, undo, full := grouped[0], grouped[1], grouped[2]

	var a Ablation
	var lu, lf float64
	n := 0
	for i := range base {
		row := AblationRow{Name: base[i].Name}
		if base[i].Score > 0 && undo[i].Score > 0 && full[i].Score > 0 {
			row.UndoLog = base[i].Score / undo[i].Score
			row.FullCopy = base[i].Score / full[i].Score
			lu += ln(row.UndoLog)
			lf += ln(row.FullCopy)
			n++
		}
		a.Rows = append(a.Rows, row)
	}
	if n > 0 {
		a.GeoUndoLog = exp(lu / float64(n))
		a.GeoFullCopy = exp(lf / float64(n))
	}
	return a
}

// Render formats the ablation table.
func (a Ablation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — checkpointing strategy slowdown vs baseline (§IV-C rationale)\n")
	fmt.Fprintf(&b, "%-18s %12s %12s\n", "Benchmark", "Undo log", "Full copy")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-18s %12.3f %12.3f\n", r.Name, r.UndoLog, r.FullCopy)
	}
	fmt.Fprintf(&b, "%-18s %12.3f %12.3f\n", "geomean", a.GeoUndoLog, a.GeoFullCopy)
	return b.String()
}
