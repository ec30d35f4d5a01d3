//go:build !race

package core

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
)

// One turn of the OSIRIS request loop — receive, checkpoint and open the
// window, both loop points, the handler's logged store and reply, close
// the window — must not touch the host allocator when no tracer is
// installed: the point names are built once per body, not per request.
func TestServerLoopTurnDoesNotAllocate(t *testing.T) {
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1})
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		return newEchoComp(st, 0, &seen)
	})
	allocs := -1.0
	o.SpawnInit("client", func(ctx *kernel.Context) {
		allocs = testing.AllocsPerRun(200, func() {
			ctx.SendRec(echoEP, kernel.Message{Type: 300})
		})
	})
	if res := o.Run(1_000_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if allocs != 0 {
		t.Fatalf("server loop turn allocates %v times, want 0", allocs)
	}
}
