package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire/wiretest"
)

const initEP = int64(kernel.EpUserBase)

// harness runs a VM instance in the standard loop plus a stub system
// task, then drives client. It returns the VM for state inspection
// after the run.
func harness(t *testing.T, client func(ctx *kernel.Context)) *VM {
	t.Helper()
	k := kernel.New(kernel.DefaultCostModel(), 1)
	store := memlog.NewStore("vm", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	v := New(store, initEP)
	k.AddServer(kernel.EpVM, "vm", func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			win.BeginRequest(m.NeedsReply)
			v.Handle(ctx, m)
			win.EndRequest()
		}
	}, kernel.ServerConfig{Window: win, Store: store})
	k.AddServer(proto.EpSys, "sys", func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			ctx.ReplyErr(m.From, kernel.OK)
		}
	}, kernel.ServerConfig{})
	root := k.SpawnUser("client", client)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(500_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	return v
}

func TestInitSpaceSeeded(t *testing.T) {
	harness(t, func(ctx *kernel.Context) {
		r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMQuery, A: initEP})
		if r.Errno != kernel.OK || r.A != DefaultProcPages {
			t.Errorf("query init = %v, %d pages", r.Errno, r.A)
		}
		if r.B != DefaultProcPages {
			t.Errorf("used total = %d, want %d", r.B, DefaultProcPages)
		}
	})
}

func TestNewProcForkExitAccounting(t *testing.T) {
	v := harness(t, func(ctx *kernel.Context) {
		if r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMNewProc, A: 200, B: 10}); r.Errno != kernel.OK {
			t.Fatalf("newproc = %v", r.Errno)
		}
		if r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMNewProc, A: 200, B: 10}); r.Errno != kernel.EEXIST {
			t.Fatalf("duplicate newproc = %v, want EEXIST", r.Errno)
		}
		if r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMFork, A: 200, B: 201}); r.Errno != kernel.OK {
			t.Fatalf("fork = %v", r.Errno)
		}
		q := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMQuery, A: 201})
		if q.A != 10 {
			t.Fatalf("child pages = %d, want 10", q.A)
		}
		if q.B != DefaultProcPages+20 {
			t.Fatalf("used = %d, want %d", q.B, DefaultProcPages+20)
		}
		for _, ep := range []int64{200, 201} {
			if r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMExit, A: ep}); r.Errno != kernel.OK {
				t.Fatalf("exit %d = %v", ep, r.Errno)
			}
		}
		q = ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMQuery, A: initEP})
		if q.B != DefaultProcPages {
			t.Fatalf("used after exits = %d, want %d", q.B, DefaultProcPages)
		}
	})
	if got := v.used.Get(); got != DefaultProcPages {
		t.Fatalf("internal used = %d, want %d", got, DefaultProcPages)
	}
}

func TestBrkGrowShrink(t *testing.T) {
	harness(t, func(ctx *kernel.Context) {
		r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMBrk, A: initEP, B: 6})
		if r.Errno != kernel.OK || r.A != DefaultProcPages+6 {
			t.Fatalf("brk(+6) = %v, %d", r.Errno, r.A)
		}
		r = ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMBrk, A: initEP, B: -6})
		if r.Errno != kernel.OK || r.A != DefaultProcPages {
			t.Fatalf("brk(-6) = %v, %d", r.Errno, r.A)
		}
		r = ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMBrk, A: initEP, B: 0})
		if r.Errno != kernel.OK || r.A != DefaultProcPages {
			t.Fatalf("brk(0) = %v, %d", r.Errno, r.A)
		}
		r = ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMBrk, A: initEP, B: -1000})
		if r.Errno != kernel.EINVAL {
			t.Fatalf("over-shrink = %v, want EINVAL", r.Errno)
		}
	})
}

func TestENOMEM(t *testing.T) {
	harness(t, func(ctx *kernel.Context) {
		r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMNewProc, A: 300, B: TotalPages})
		if r.Errno != kernel.ENOMEM {
			t.Fatalf("oversized newproc = %v, want ENOMEM", r.Errno)
		}
		// Failure must not leak: a reasonable allocation still works.
		r = ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMNewProc, A: 300, B: 10})
		if r.Errno != kernel.OK {
			t.Fatalf("newproc after ENOMEM = %v", r.Errno)
		}
	})
}

func TestQueryUnknown(t *testing.T) {
	harness(t, func(ctx *kernel.Context) {
		if r := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMQuery, A: 999}); r.Errno != kernel.ESRCH {
			t.Fatalf("query unknown = %v, want ESRCH", r.Errno)
		}
	})
}

// TestDefensiveAsserts: fork/exit for an endpoint VM has never seen is
// a cross-server inconsistency and must fail-stop the component.
func TestDefensiveAsserts(t *testing.T) {
	for _, typ := range []kernel.MsgType{proto.VMFork, proto.VMExit} {
		k := kernel.New(kernel.DefaultCostModel(), 1)
		store := memlog.NewStore("vm", memlog.Optimized)
		win := seep.NewWindow(seep.PolicyEnhanced, store)
		v := New(store, initEP)
		k.AddServer(kernel.EpVM, "vm", func(ctx *kernel.Context) {
			for {
				m := ctx.Receive()
				win.BeginRequest(m.NeedsReply)
				v.Handle(ctx, m)
				win.EndRequest()
			}
		}, kernel.ServerConfig{Window: win, Store: store})
		root := k.SpawnUser("client", func(ctx *kernel.Context) {
			ctx.SendRec(kernel.EpVM, kernel.Message{Type: typ, A: 555, B: 556})
		})
		k.SetRootProcess(root.Endpoint())
		res := k.Run(100_000_000)
		if res.Outcome != kernel.OutcomeCrashed {
			t.Errorf("type %d: outcome = %v, want crashed (defensive assert)", typ, res.Outcome)
		}
	}
}

// TestPropertyFrameAccounting: any sequence of newproc/fork/brk/exit
// keeps used == sum of live space sizes == owned frames.
func TestPropertyFrameAccounting(t *testing.T) {
	fn := func(seed uint64, opsRaw uint8) bool {
		ok := true
		harness(t, func(ctx *kernel.Context) {
			r := sim.NewRNG(seed)
			live := map[int64]bool{initEP: true}
			next := int64(500)
			ops := int(opsRaw)%30 + 5
			for i := 0; i < ops; i++ {
				switch r.Intn(4) {
				case 0:
					ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMNewProc, A: next, B: int64(r.Intn(8) + 1)})
					live[next] = true
					next++
				case 1:
					if len(live) > 0 {
						parent := pick(r, live)
						ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMFork, A: parent, B: next})
						live[next] = true
						next++
					}
				case 2:
					if len(live) > 0 {
						ep := pick(r, live)
						ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMBrk, A: ep, B: int64(r.Intn(5)) - 2})
					}
				case 3:
					if len(live) > 1 {
						ep := pick(r, live)
						if ep != initEP {
							ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMExit, A: ep})
							delete(live, ep)
						}
					}
				}
			}
			// Invariant: used == sum(space pages) over live endpoints.
			var sum int64
			for ep := range live {
				q := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMQuery, A: ep})
				if q.Errno == kernel.OK {
					sum += q.A
				}
			}
			q := ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMQuery, A: initEP})
			if q.B != sum {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// pick returns a deterministic pseudo-random live endpoint.
func pick(r *sim.RNG, live map[int64]bool) int64 {
	keys := make([]int64, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	// Sort for determinism (map iteration order is random).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[r.Intn(len(keys))]
}

// The address space's field list against its definition, the reflective
// walk of the declaration: same bytes, and back; and hashed, every field
// counts.
func TestSpaceFieldList(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[space])
	wiretest.HashCovers[space](t)
}
