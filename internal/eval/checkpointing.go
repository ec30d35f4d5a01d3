package eval

import (
	"fmt"
	"strings"

	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/unixbench"
)

// CheckpointingRow compares the two FullCopy checkpoint charge rules on
// one benchmark: a copy of the whole data section (legacy) and the
// incremental dirty-set delta.
type CheckpointingRow struct {
	Name                string
	Legacy, Incremental float64 // slowdown vs uninstrumented baseline
}

// Checkpointing quantifies what the incremental dirty-set snapshots buy
// over the legacy whole-data-section clone: the same FullCopy semantics
// at a fraction of the per-request cost, because checkpoints charge for
// delta bytes instead of resident state.
type Checkpointing struct {
	Rows                      []CheckpointingRow
	GeoLegacy, GeoIncremental float64
	// GeoSpeedup is GeoLegacy/GeoIncremental expressed on the overhead
	// portion of the slowdown: how much of the full-copy tax the
	// dirty-set optimisation removes.
	GeoSpeedup float64
}

// RunCheckpointing measures both FullCopy checkpoint implementations
// against the uninstrumented baseline under the enhanced policy.
func RunCheckpointing(sc Scale) Checkpointing {
	grouped := runBenchMatrix(sc.Workers,
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.Baseline,
			Seed: sc.Seed, IterScale: sc.IterScale,
		},
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.FullCopy,
			LegacyCheckpoint: true,
			Seed:             sc.Seed, IterScale: sc.IterScale,
		},
		unixbench.Config{
			Policy: seep.PolicyEnhanced, Instrumentation: memlog.FullCopy,
			Seed: sc.Seed, IterScale: sc.IterScale,
		})
	base, legacy, incr := grouped[0], grouped[1], grouped[2]

	var t Checkpointing
	var ll, li float64
	n := 0
	for i := range base {
		row := CheckpointingRow{Name: base[i].Name}
		if base[i].Score > 0 && legacy[i].Score > 0 && incr[i].Score > 0 {
			row.Legacy = base[i].Score / legacy[i].Score
			row.Incremental = base[i].Score / incr[i].Score
			ll += ln(row.Legacy)
			li += ln(row.Incremental)
			n++
		}
		t.Rows = append(t.Rows, row)
	}
	if n > 0 {
		t.GeoLegacy = exp(ll / float64(n))
		t.GeoIncremental = exp(li / float64(n))
		if t.GeoIncremental > 0 {
			t.GeoSpeedup = t.GeoLegacy / t.GeoIncremental
		}
	}
	return t
}

// Render formats the checkpointing comparison table.
func (t Checkpointing) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpointing — legacy full-copy vs incremental dirty-set slowdown vs baseline\n")
	fmt.Fprintf(&b, "%-18s %12s %12s\n", "Benchmark", "Legacy", "Incremental")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s %12.3f %12.3f\n", r.Name, r.Legacy, r.Incremental)
	}
	fmt.Fprintf(&b, "%-18s %12.3f %12.3f\n", "geomean", t.GeoLegacy, t.GeoIncremental)
	fmt.Fprintf(&b, "geomean speedup of the full-copy tax: %.2fx\n", t.GeoSpeedup)
	return b.String()
}
