//go:build !race

package boot

import (
	"runtime"
	"testing"

	"repro/internal/testsuite"
)

// forkBytes measures what one Fork (plus the Shutdown every fork ends
// with) takes from the host allocator, averaged over n forks of snap.
func forkBytes(t *testing.T, snap *Snapshot, n int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		var report testsuite.Report
		sys, err := snap.Fork(ForkParams{Seed: uint64(i)}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		sys.Shutdown("measured")
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// Allocation budget of the fork path. A fork copies the component
// stores' containers but shares their maps until written, and of a store
// slice and of the disk copies only a page table, and a reaped test child
// costs it a 64-byte placeholder: a fork of the suite machine measures
// 24 KiB at the boot barrier and 31 KiB sixty tests in, and must stay
// under forkCeiling. (With every map copied they were 78 and 86 KiB; with
// VM's frame table copied whole as well, 158 and 165 KiB; with a flat
// block table copied per fork and a whole Process per reaped child
// besides, 287 and 331 KiB.)
func TestForkAllocationCeiling(t *testing.T) {
	const forkCeiling = 200 << 10
	opts := suiteOpts(1)
	var report testsuite.Report
	sys := Boot(opts, testsuite.RunnerInit(&report))
	defer sys.Shutdown("done")
	for _, barriers := range []int{1, 60} {
		for i := 0; i < barriers; i++ {
			if !sys.Kernel().RunToBarrier(testLimit) {
				t.Fatalf("suite ended before barrier %d", i)
			}
		}
		snap, err := CaptureParked(sys, opts)
		if err != nil {
			t.Fatalf("CaptureParked: %v", err)
		}
		got := forkBytes(t, snap, 20)
		if got > forkCeiling {
			t.Errorf("fork after %d more barriers allocates %d bytes, ceiling %d", barriers, got, forkCeiling)
		}
	}
}
