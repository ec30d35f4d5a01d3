package eval

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// paperRow is one row of the paper's evaluation: the table it sits in,
// the row as EXPERIMENTS.md names it, and the published cells.
type paperRow struct {
	table, row string
	cells      []float64
}

// paper holds the numbers of the paper's Tables I–VI. They are the left
// half of every paper-vs-ours table in EXPERIMENTS.md; the right half is
// this package's full-scale run (TestGolden).
var paper = []paperRow{
	// Table I: % of basic blocks inside recovery windows, pessimistic
	// and enhanced policy.
	{"I", "PM", []float64{54.9, 61.7}},
	{"I", "VFS", []float64{72.3, 72.3}},
	{"I", "VM", []float64{64.6, 64.6}},
	{"I", "DS", []float64{47.1, 92.8}},
	{"I", "RS", []float64{49.4, 50.5}},
	{"I", "weighted", []float64{57.7, 68.4}},
	// Tables II (fail-stop) and III (full EDFI): % pass, fail, shutdown
	// and crash.
	{"II", "stateless", []float64{19.6, 0.0, 0.0, 80.4}},
	{"II", "naive", []float64{20.6, 2.4, 0.0, 77.0}},
	{"II", "pessimistic", []float64{18.5, 0.0, 81.3, 0.2}},
	{"II", "enhanced", []float64{25.6, 6.5, 66.1, 1.9}},
	{"III", "stateless", []float64{47.8, 10.5, 0.0, 41.7}},
	{"III", "naive", []float64{48.5, 11.9, 0.0, 39.6}},
	{"III", "pessimistic", []float64{47.3, 10.5, 38.2, 4.0}},
	{"III", "enhanced", []float64{50.4, 12.0, 32.9, 4.8}},
	// Table IV: slowdown of the baseline build against Linux.
	{"IV", "dhry2reg", []float64{4.77}},
	{"IV", "whetstone-double", []float64{2.32}},
	{"IV", "execl", []float64{0.86}},
	{"IV", "fstime", []float64{2.69}},
	{"IV", "fsbuffer", []float64{0.25}},
	{"IV", "fsdisk", []float64{13.09}},
	{"IV", "pipe", []float64{17.54}},
	{"IV", "context1", []float64{6.11}},
	{"IV", "spawn", []float64{33.00}},
	{"IV", "syscall", []float64{2.65}},
	{"IV", "shell1", []float64{1.12}},
	{"IV", "shell8", []float64{35.01}},
	{"IV", "geomean", []float64{4.20}},
	// Table V: geomean slowdown of each build against the baseline.
	{"V", "without §IV-D optimization", []float64{1.235}},
	{"V", "pessimistic (optimized)", []float64{1.046}},
	{"V", "enhanced (optimized)", []float64{1.054}},
	// Table VI: KiB of quiescent state, spare clone and largest undo log.
	{"VI", "PM", []float64{628, 944, 1}},
	{"VI", "VFS", []float64{1252, 1600, 13}},
	{"VI", "VM", []float64{4532, 18032, 24576}},
	{"VI", "DS", []float64{248, 488, 1}},
	{"VI", "RS", []float64{1696, 5004, 1}},
}

// mdTable is one paper-vs-ours table as EXPERIMENTS.md must hold it.
type mdTable struct{ name, markdown string }

// paperVsOurs renders the paper-vs-ours tables of Tables I–VI from the
// paper's rows and the full-scale sections.
func paperVsOurs(t *testing.T) []mdTable {
	t.Helper()
	ours := func(key string) Renderer { return section(t, FullScale(), key) }
	rows := func(table string) []paperRow {
		var out []paperRow
		for _, p := range paper {
			if p.table == table {
				out = append(out, p)
			}
		}
		return out
	}
	var out []mdTable

	t1 := ours("1").(Table1)
	b := newMarkdown("Server", "paper pess.", "paper enh.", "ours pess. (blocks / cycles)", "ours enh. (blocks / cycles)")
	for _, p := range rows("I") {
		r := CoverageRow{Pessimistic: t1.WeightedPessimistic, Enhanced: t1.WeightedEnhanced,
			CyclesPess: t1.CycleWeightedPessimistic, CyclesEnh: t1.CycleWeightedEnhanced}
		if p.row != "weighted" {
			r = find(t, t1.Rows, "Table I", p.row, func(r CoverageRow) bool { return r.Server == strings.ToLower(p.row) })
		}
		b.row(p.row, cells("%.1f", p.cells[0]), cells("%.1f", p.cells[1]),
			cells("%.1f", r.Pessimistic, r.CyclesPess), cells("%.1f", r.Enhanced, r.CyclesEnh))
	}
	out = append(out, mdTable{"Table I", b.String()})

	for _, table := range []struct{ name, key string }{{"II", "2"}, {"III", "3"}} {
		st := ours(table.key).(SurvivabilityTable)
		b := newMarkdown("Recovery", "paper P/F/S/C (%)", "ours P/F/S/C (%)", "ours consistent (%)", "ours runs")
		for _, p := range rows(table.name) {
			r := find(t, st.Rows, "Table "+table.name, p.row, func(r faultinject.CampaignResult) bool { return r.Policy.String() == p.row })
			b.row(p.row, cells("%.1f", p.cells...),
				cells("%.1f", r.Percent(faultinject.OutcomePass), r.Percent(faultinject.OutcomeFail),
					r.Percent(faultinject.OutcomeShutdown), r.Percent(faultinject.OutcomeCrash)),
				cells("%.1f", r.ConsistentPercent()), fmt.Sprint(r.Runs))
		}
		out = append(out, mdTable{"Table " + table.name, b.String()})
	}

	t4 := ours("4").(Table4)
	b = newMarkdown("Benchmark", "paper slowdown", "ours")
	for _, p := range rows("IV") {
		slowdown := t4.GeomeanSlowdown
		if p.row != "geomean" {
			slowdown = find(t, t4.Rows, "Table IV", p.row, func(r PerfRow) bool { return r.Name == p.row }).Slowdown
		}
		b.row(p.row, cells("%.2f", p.cells[0]), cells("%.2f", slowdown))
	}
	out = append(out, mdTable{"Table IV", b.String()})

	t5 := ours("5").(Table5)
	geomeans := map[string]float64{
		"without §IV-D optimization": t5.GeoUnoptimized,
		"pessimistic (optimized)":    t5.GeoPessimistic,
		"enhanced (optimized)":       t5.GeoEnhanced,
	}
	b = newMarkdown("Build", "paper geomean", "ours geomean")
	for _, p := range rows("V") {
		geo, ok := geomeans[p.row]
		if !ok {
			t.Fatalf("Table V: no build of ours is the paper's %q", p.row)
		}
		b.row(p.row, cells("%.3f", p.cells[0]), cells("%.3f", geo))
	}
	out = append(out, mdTable{"Table V", b.String()})

	t6 := ours("6").(Table6)
	b = newMarkdown("Server", "paper base/+clone/+log", "ours base/+clone/+log")
	paperTotal := 0.0
	for _, p := range rows("VI") {
		r := find(t, t6.Rows, "Table VI", p.row, func(r MemoryRow) bool { return r.Server == strings.ToLower(p.row) })
		b.row(p.row, cells("%.0f", p.cells...), cells("%d", kib(r.Base), kib(r.Clone), kib(r.UndoLog)))
		paperTotal += p.cells[1] + p.cells[2]
	}
	b.row("total overhead", cells("%.0f", paperTotal), cells("%d", kib(t6.Total)))
	out = append(out, mdTable{"Table VI", b.String()})
	return out
}

// find returns the row of ours that match picks for the paper's row, and
// fails t when there is none.
func find[T any](t *testing.T, rows []T, table, row string, match func(T) bool) T {
	t.Helper()
	for _, r := range rows {
		if match(r) {
			return r
		}
	}
	t.Fatalf("%s: no row of ours is the paper's %q", table, row)
	var zero T
	return zero
}

// cells formats values with format and joins them with " / ".
func cells[T any](format string, values ...T) string {
	s := make([]string, len(values))
	for i, v := range values {
		s[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(s, " / ")
}

// markdown builds a GitHub table, one row per call.
type markdown struct{ strings.Builder }

func newMarkdown(header ...string) *markdown {
	b := new(markdown)
	b.row(header...)
	b.WriteString("|" + strings.Repeat("---|", len(header)) + "\n")
	return b
}

func (b *markdown) row(cells ...string) {
	b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
}
