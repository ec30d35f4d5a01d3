//go:build !race

package kernel

import (
	"testing"

	"repro/internal/memlog"
	"repro/internal/seep"
)

// Allocation budget of the message path (the race detector allocates on
// its own, hence the build tag). With no tracer installed a
// SendRec/Receive/Reply round trip — two context switches, two message
// transfers, the reply passage through an open recovery window — must
// not touch the host allocator: every simulated request crosses it, so
// one allocation here is tens of thousands per run.
func TestRoundTripDoesNotAllocate(t *testing.T) {
	k := newTestKernel()
	store := memlog.NewStore("echo", memlog.Optimized)
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{
		Window: seep.NewWindow(seep.PolicyEnhanced, store),
		Store:  store,
	})
	allocs := -1.0
	root := k.SpawnUser("client", func(ctx *Context) {
		allocs = testing.AllocsPerRun(200, func() {
			ctx.SendRec(EpDS, Message{Type: 1, A: 1})
		})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if allocs != 0 {
		t.Fatalf("round trip allocates %v times, want 0", allocs)
	}
}
