//go:build !race

package vfs

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// Allocation budget of the file path (the race detector allocates on its
// own, hence the build tag). A one-block write, a seek and the read of
// that block cross the VFS main loop, a worker thread, the block layer
// and the driver five times; once the file and the logs exist, the host
// allocator sees the written block and nothing else — no read buffer, no
// closure, no device and no boxed tag per request.
func TestFileRoundTripAllocation(t *testing.T) {
	allocs := -1.0
	world(t, func(ctx *kernel.Context) {
		o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/f", A: proto.OCreate})
		if o.Errno != kernel.OK {
			t.Fatalf("open = %v", o.Errno)
		}
		payload := make([]byte, 4096)
		round := func() {
			call(ctx, kernel.Message{Type: proto.VFSSeek, A: o.A, B: 0})
			if w := call(ctx, kernel.Message{Type: proto.VFSWrite, A: o.A, Bytes: payload}); w.Errno != kernel.OK || w.A != 4096 {
				t.Fatalf("write = %v n=%d", w.Errno, w.A)
			}
			call(ctx, kernel.Message{Type: proto.VFSSeek, A: o.A, B: 0})
			if r := call(ctx, kernel.Message{Type: proto.VFSRead, A: o.A, B: 4096}); r.Errno != kernel.OK || len(r.Bytes) != 4096 {
				t.Fatalf("read = %v n=%d", r.Errno, len(r.Bytes))
			}
		}
		round()
		round()
		allocs = testing.AllocsPerRun(100, round)
	})
	// The written block (fs.WriteAt builds a fresh prefix and the device
	// adopts it, whatever its length); the read lends that block back
	// (fs.ReadAt).
	if allocs > 1 {
		t.Fatalf("write + read round trip allocates %v times, want at most its 1 block-sized buffer", allocs)
	}
}
