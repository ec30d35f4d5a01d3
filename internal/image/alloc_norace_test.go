//go:build !race

package image_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/boot"
	"repro/internal/image"
	"repro/internal/testsuite"
)

// allocated returns the bytes f allocates, as the least of five runs (the
// first compressed write builds the spare compressor). What done returns,
// if anything, runs outside the measurement.
func allocated(f func() (done func())) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		done := f()
		runtime.ReadMemStats(&after)
		if done != nil {
			done()
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// Allocation budget of a snapshot round trip, in multiples of the bytes
// it moves (DESIGN.md §8). A write allocates the small frames once and
// nothing the size of the disk: the blocks frame, nine tenths of the
// image, streams from the device pages into the destination (presized
// here, and the caller's) or into the kept compressor, so a write that
// gathers it into a buffer again is over budget. A compressed write also
// allocates what the frames deflate to. A read allocates the file once
// (the disk's blocks are slices of it) plus the decoded kernel and store
// records, and a fork of what was read what a fork of the captured
// snapshot costs plus the materialized containers.
func TestImagePathAllocations(t *testing.T) {
	snap := captureSnapshot(t, 1)
	raw := encode(t, snap, image.WriteOptions{Workers: 1})
	size := float64(len(raw))
	reg := suiteRegistry()
	within := func(what string, got uint64, budget float64) {
		t.Helper()
		t.Logf("%s allocates %d KiB, %.2f of the image's %d KiB", what, got>>10, float64(got)/size, len(raw)>>10)
		if float64(got) > budget*size {
			t.Errorf("%s allocates %.2f times the image bytes, budget %.2f", what, float64(got)/size, budget)
		}
	}

	for _, c := range []struct {
		what     string
		compress bool
		budget   float64
	}{{"a raw write", false, 0.3}, {"a compressed write", true, 0.3}} {
		o := image.WriteOptions{Compress: c.compress, Workers: 1}
		dst := bytes.NewBuffer(make([]byte, 0, len(raw)))
		within(c.what, allocated(func() func() {
			dst.Reset()
			if err := image.WriteSnapshot(dst, snap, o); err != nil {
				t.Fatal(err)
			}
			return nil
		}), c.budget)
	}

	var decoded *boot.Snapshot
	within("a raw read", allocated(func() func() {
		var err error
		if decoded, err = image.ReadSnapshot(bytes.NewReader(raw), reg, 1); err != nil {
			t.Fatal(err)
		}
		return nil
	}), 1.3)

	// A fork is budgeted in bytes. From a decoded snapshot, whose stores
	// are materialized from their payloads, at what it measured when the
	// budget was set plus a tenth: 138 KiB, where inodes that held all
	// NDirect block slots cost 160. From the captured one, whose
	// stores are cloned, at 32 KiB: a clone of a slice copies its page
	// table and shares the pages, and a clone of a map shares the map, so
	// a fork measures 23 KiB where copying the filesystem's two maps cost
	// 77 and copying VM's frame table and the free-block stack as well 158.
	fork := func(s *boot.Snapshot) uint64 {
		return allocated(func() func() {
			sys, err := s.Fork(boot.ForkParams{Seed: 1}, testsuite.RunnerResumeFrom(new(testsuite.Report), testsuite.Report{}))
			if err != nil {
				t.Fatal(err)
			}
			return func() { sys.Shutdown("fork measured") }
		})
	}
	fromDecoded, inMemory := fork(decoded), fork(snap)
	t.Logf("a fork allocates %d KiB from a decoded snapshot, %d KiB from the captured one", fromDecoded>>10, inMemory>>10)
	const forkBudget = 138 << 10 * 11 / 10
	if fromDecoded > forkBudget {
		t.Errorf("a fork of a decoded snapshot allocates %d KiB, budget %d KiB", fromDecoded>>10, forkBudget>>10)
	}
	const capturedForkBudget = 32 << 10
	if inMemory > capturedForkBudget {
		t.Errorf("a fork of the captured snapshot allocates %d KiB, budget %d KiB", inMemory>>10, capturedForkBudget>>10)
	}
}
