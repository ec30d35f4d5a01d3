//go:build !race

package vm

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
)

// Allocation budget of process exit (the race detector allocates on its
// own, hence the build tag). With the frame index built, an address
// space's frame list comes from the spare lists and goes back to them: a
// newproc + exit pair, logged, must not touch the host allocator.
func TestWarmExitDoesNotAllocate(t *testing.T) {
	allocs := -1.0
	vmBench(t, func(ctx *kernel.Context) {
		store := memlog.NewStore("vm", memlog.Unoptimized)
		v := New(store, initEP)
		round := func() {
			store.Checkpoint()
			v.Handle(ctx, kernel.Message{Type: proto.VMNewProc, A: 900, From: nobody})
			v.Handle(ctx, kernel.Message{Type: proto.VMBrk, A: 900, B: 8, From: nobody})
			v.Handle(ctx, kernel.Message{Type: proto.VMBrk, A: 900, B: -3, From: nobody})
			v.Handle(ctx, kernel.Message{Type: proto.VMExit, A: 900, From: nobody})
		}
		round() // builds the index, grows the logs
		round()
		allocs = testing.AllocsPerRun(100, round)
		if got := v.used.Get(); got != DefaultProcPages {
			t.Errorf("used = %d after the rounds, want %d", got, DefaultProcPages)
		}
	})
	if allocs != 0 {
		t.Fatalf("newproc + brk + exit allocates %v times, want 0", allocs)
	}
}
