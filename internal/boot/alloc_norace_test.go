//go:build !race

package boot

import (
	"runtime"
	"testing"

	"repro/internal/kernel"
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

// forkMallocs counts the allocations of one fork of snap on arena a run
// to its next barrier, shut down and released, averaged over n of them
// after a first one that is not counted.
func forkMallocs(t *testing.T, snap *Snapshot, a *kernel.Arena, n int) float64 {
	t.Helper()
	return testing.AllocsPerRun(n, func() {
		var report testsuite.Report
		sys, err := snap.Fork(ForkParams{Seed: 1, Arena: a}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		if !sys.Kernel().RunToBarrier(testLimit) {
			t.Fatal("fork did not reach its next barrier")
		}
		sys.Shutdown("measured")
		sys.Kernel().Release()
	})
}

// Allocation budget of a second fork through one arena: it takes the
// coroutines, the process table, the scheduling order, the ready bitmap
// and the placeholder slab the fork before it released, where a fork on
// a private arena allocates them all again. Sixty tests into the suite, a
// fork run to its next barrier measures 349 allocations on a private
// arena and 210 on a used one; it must stay under arenaForkCeiling, and
// at least ten coroutines' worth (12 allocations each) below the private
// fork.
func TestSecondForkOnAnArenaAllocation(t *testing.T) {
	const (
		arenaForkCeiling = 240
		arenaSaving      = 10 * 12
	)
	opts := suiteOpts(1)
	sys := Boot(opts, testsuite.RunnerInit(new(testsuite.Report)))
	defer sys.Shutdown("done")
	for i := 0; i < 60; i++ {
		if !sys.Kernel().RunToBarrier(testLimit) {
			t.Fatalf("suite ended before barrier %d", i)
		}
	}
	snap, err := CaptureParked(sys, opts)
	if err != nil {
		t.Fatalf("CaptureParked: %v", err)
	}
	a := new(kernel.Arena)
	defer a.Close()
	private, shared := forkMallocs(t, snap, nil, 20), forkMallocs(t, snap, a, 20)
	if shared > arenaForkCeiling || private-shared < arenaSaving {
		t.Errorf("a fork allocates %v times on a used arena and %v on a private one: want at most %d, and %d fewer than on a private one",
			shared, private, arenaForkCeiling, arenaSaving)
	}
}
