package kernel

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// benchSendRec runs b.N SendRec round trips from one user process to dst
// on a machine whose servers are echo (EpDS) and a relay to it (EpVFS),
// and reports host time per round trip: the kernel's IPC and context
// switch layer without the servers' work or the recovery machinery.
func benchSendRec(b *testing.B, dst Endpoint) {
	k := newTestKernel()
	k.AddServer(EpVFS, "relay", relayServer, ServerConfig{})
	k.AddServer(EpDS, "echo", replyServer, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.SendRec(dst, Message{Type: 100}) // every process past its first dispatch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.SendRec(dst, Message{Type: 100, A: int64(i)})
		}
		b.StopTimer()
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(sim.Cycles(math.MaxInt64)); res.Outcome != OutcomeCompleted {
		b.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// BenchmarkSendRecRoundTrip is a user process's SendRec to a server that
// replies at once.
func BenchmarkSendRecRoundTrip(b *testing.B) { benchSendRec(b, EpDS) }

// BenchmarkNestedSendRec is a SendRec whose server SendRecs a second
// server before it replies (user → VFS → driver, in shape).
func BenchmarkNestedSendRec(b *testing.B) { benchSendRec(b, EpVFS) }

// BenchmarkLeafCall is BenchmarkSendRecRoundTrip's round trip to a
// server that registers its step: served on the caller's coroutine,
// without a switch.
func BenchmarkLeafCall(b *testing.B) {
	k := newTestKernel()
	echo := &testStep{serve: func(ctx *Context, m Message) {
		ctx.Reply(m.From, Message{Type: m.Type, A: m.A + 1})
	}}
	k.AddServer(EpDS, "echo", loopOf(echo), ServerConfig{Step: echo})
	root := k.SpawnUser("client", func(ctx *Context) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.SendRec(EpDS, Message{Type: 100, A: int64(i)})
		}
		b.StopTimer()
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(sim.Cycles(math.MaxInt64)); res.Outcome != OutcomeCompleted {
		b.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if leaf, _ := k.LeafCalls(); leaf < uint64(b.N) {
		b.Fatalf("%d of %d round trips were leaf calls", leaf, b.N)
	}
}

// BenchmarkPoint is one instrumentation point executed by a user process
// (no recovery window to account): with no hook, with a hook armed at
// three other sites, and with one armed at the executing site. The hook
// matches the site against its own list, as a fault injector's does.
func BenchmarkPoint(b *testing.B) {
	matched := 0
	hook := func(sites []string) func(Endpoint, string, string) {
		return func(_ Endpoint, _, site string) {
			for _, s := range sites {
				if s == site {
					matched++
				}
			}
		}
	}
	for _, bc := range []struct {
		name  string
		sites []string // nil: no hook
	}{
		{"nohook", nil},
		{"elsewhere", []string{"vfs.read.entry", "pm.fork.entry", "ds.get.entry"}},
		{"here", []string{"vfs.read.entry", "pm.fork.entry", "ds.put.entry"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := newTestKernel()
			if bc.sites != nil {
				k.SetPointHook(hook(bc.sites), bc.sites...)
			}
			root := k.SpawnUser("client", func(ctx *Context) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx.Point("ds.put.entry")
				}
				b.StopTimer()
			})
			k.SetRootProcess(root.Endpoint())
			if res := k.Run(sim.Cycles(math.MaxInt64)); res.Outcome != OutcomeCompleted {
				b.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
			}
		})
	}
}
