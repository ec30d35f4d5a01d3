package eval

import (
	"reflect"
	"testing"
)

// Every evaluation table must be bit-identical for any worker count:
// each simulated machine owns its clock and RNG, and results are
// reduced in job order, so the thread count can never leak into the
// numbers. Each table is computed serially once and compared with its
// parallel runs.
func TestTablesIdenticalAcrossWorkerCounts(t *testing.T) {
	tables := []struct {
		name string
		run  func(Scale) any
	}{
		{"Table5", func(sc Scale) any { return RunTable5(sc) }},
		{"IPCSweep", func(sc Scale) any { return RunIPCSweep(sc) }},
		{"Figure3", func(sc Scale) any { return RunFigure3(sc, []uint64{3_200_000}) }},
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			sc := QuickScale()
			sc.Workers = 1
			serial := tc.run(sc)
			for _, workers := range []int{2, 8} {
				sc.Workers = workers
				if got := tc.run(sc); !reflect.DeepEqual(serial, got) {
					t.Fatalf("workers=%d %s diverged from serial:\n%+v\nvs\n%+v", workers, tc.name, got, serial)
				}
			}
		})
	}
}
