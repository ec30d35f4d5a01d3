package kernel

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// referenceNextFrom is the obvious O(n) spec of readySet.nextFrom.
func referenceNextFrom(bits []bool, start int) int {
	n := len(bits)
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if bits[idx] {
			return idx
		}
	}
	return -1
}

func TestReadySetNextFromMatchesReference(t *testing.T) {
	rng := sim.NewRNG(99)
	for _, n := range []int{1, 3, 63, 64, 65, 130, 200} {
		var rs readySet
		rs.ensure(n)
		bits := make([]bool, n)
		for trial := 0; trial < 200; trial++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				rs.set(i)
				bits[i] = true
			} else {
				rs.clear(i)
				bits[i] = false
			}
			start := rng.Intn(n)
			want := referenceNextFrom(bits, start)
			if got := rs.nextFrom(start, n); got != want {
				t.Fatalf("n=%d trial=%d: nextFrom(%d) = %d, want %d (bits %v)", n, trial, start, got, want, bits)
			}
		}
	}
}

func TestReadySetInsertShiftsBits(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, n := range []int{1, 5, 64, 100} {
		var rs readySet
		rs.ensure(n)
		bits := make([]bool, n)
		for i := range bits {
			if rng.Intn(2) == 0 {
				rs.set(i)
				bits[i] = true
			}
		}
		for grow := 0; grow < 70; grow++ {
			at := rng.Intn(len(bits) + 1)
			rs.insert(at, len(bits)+1)
			bits = append(bits[:at], append([]bool{false}, bits[at:]...)...)
			for start := 0; start < len(bits); start += 1 + len(bits)/7 {
				want := referenceNextFrom(bits, start)
				if got := rs.nextFrom(start, len(bits)); got != want {
					t.Fatalf("n=%d after insert at %d: nextFrom(%d) = %d, want %d", len(bits), at, start, got, want)
				}
			}
		}
	}
}

// A machine with more processes than one bitmap word must still
// schedule deterministically through the multi-word wrap paths.
func TestManyProcessScheduling(t *testing.T) {
	run := func() (sim.Cycles, uint64) {
		k := New(DefaultCostModel(), 3)
		var total int
		for i := 0; i < 100; i++ {
			k.SpawnUser("w", func(ctx *Context) {
				for j := 0; j < 10; j++ {
					ctx.Tick(5)
					ctx.Yield()
				}
				total++
			})
		}
		root := k.SpawnUser("root", func(ctx *Context) {
			for total < 100 {
				ctx.Tick(5)
				ctx.Yield()
			}
		})
		k.SetRootProcess(root.Endpoint())
		res := k.Run(testLimit)
		if res.Outcome != OutcomeCompleted {
			t.Fatalf("outcome %v (%s)", res.Outcome, res.Reason)
		}
		return res.Cycles, k.Counters().Get("kernel.dispatches")
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d, %d) vs (%d, %d)", c1, d1, c2, d2)
	}
}

// describeBlocked renders the non-dead processes with their block
// states; it is only consulted on the deadlock path.
func TestDescribeBlockedOutput(t *testing.T) {
	k := New(DefaultCostModel(), 1)
	k.AddServer(Endpoint(10), "srv", func(ctx *Context) {
		for {
			ctx.Receive() // never replies
		}
	}, ServerConfig{})
	root := k.SpawnUser("root", func(ctx *Context) {
		ctx.SendRec(Endpoint(10), Message{A: 1})
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeDeadlock {
		t.Fatalf("outcome = %v (%s), want deadlock", res.Outcome, res.Reason)
	}
	const want = "srv(10):receiving, root(100):sendrec->10"
	if !strings.Contains(res.Reason, want) {
		t.Fatalf("deadlock reason %q does not contain %q", res.Reason, want)
	}
}

// installDeadPlaceholders merges an image's dead processes into the
// scheduling order in one pass. It must leave the machine exactly where
// inserting them one at a time through insertIntoOrder does: same order,
// same order index for every process, same readiness bitmap, same
// procs_created count — a fork's ready-set bit positions and round-robin
// cursor mean what they meant on the captured machine. The merged machines
// share one arena, so each merges over the arrays and the slab the rounds
// before it left behind.
func TestInstallDeadPlaceholdersMatchesSequentialInsert(t *testing.T) {
	r := sim.NewRNG(7)
	arena := new(Arena)
	defer arena.Close()
	for round := 0; round < 50; round++ {
		// Live processes at scattered endpoints, a random half of them
		// blocked so the bitmap is not all ones; dead ones in the gaps,
		// before the first and after the last.
		var liveEPs []Endpoint
		var img []procImage
		for ep := Endpoint(10); ep < 10+Endpoint(40+r.Intn(120)); ep++ {
			switch r.Intn(3) {
			case 0:
				liveEPs = append(liveEPs, ep)
				img = append(img, procImage{ep: ep, live: 1})
			case 1:
				img = append(img, procImage{ep: ep, name: "reaped"})
			}
		}
		build := func(a *Arena) *Kernel {
			k := NewIn(a, DefaultCostModel(), 1)
			for i, ep := range liveEPs {
				p := k.AddServer(ep, "live", func(*Context) {}, ServerConfig{})
				if i%2 == 1 {
					p.state = stateReceiving
					k.markSched(p)
				}
			}
			return k
		}
		dead := len(img) - len(liveEPs)

		got := build(arena)
		got.installDeadPlaceholders(&MachineImage{procs: img, lives: []liveImage{{state: stateReceiving}}}, dead)

		want := build(nil)
		for _, pi := range img {
			if pi.live == 0 {
				p := &Process{k: want, ep: pi.ep, name: pi.name, state: stateDead}
				want.procs.set(pi.ep, p)
				want.insertIntoOrder(pi.ep)
				want.markSched(p)
			}
		}

		if !reflect.DeepEqual(got.order, want.order) {
			t.Fatalf("round %d: order %v, want %v", round, got.order, want.order)
		}
		if !slices.Equal(got.ready.words, want.ready.words) {
			t.Fatalf("round %d: readiness bitmap %x, want %x", round, got.ready.words, want.ready.words)
		}
		for i, ep := range want.order {
			g, w := got.procs.get(ep), want.procs.get(ep)
			if g == nil || g.orderIdx != i || w.orderIdx != i || g.name != w.name || g.state != w.state {
				t.Fatalf("round %d: process at endpoint %d: %+v, want %+v at index %d", round, ep, g, w, i)
			}
			if got.ready.get(i) != want.ready.get(i) {
				t.Fatalf("round %d: readiness bit %d differs", round, i)
			}
		}
		if g, w := got.counters.Get("kernel.procs_created"), want.counters.Get("kernel.procs_created"); g != w {
			t.Fatalf("round %d: procs_created %d, want %d", round, g, w)
		}
		got.Teardown("round done")
		got.Release()
		want.killAll()
	}
}

// A dead placeholder has no live part; every kernel entry point that can
// be handed its endpoint treats it as the dead process it stands for.
func TestDeadPlaceholderIsInert(t *testing.T) {
	k := newTestKernel()
	const ghost = Endpoint(150)
	root := k.SpawnUser("root", func(ctx *Context) {
		if r := ctx.SendRec(ghost, Message{}); r.Errno != EDEADSRCDST {
			t.Errorf("SendRec to a placeholder = %v, want EDEADSRCDST", r.Errno)
		}
		if errno := ctx.Send(ghost, Message{}); errno != EDEADSRCDST {
			t.Errorf("Send to a placeholder = %v, want EDEADSRCDST", errno)
		}
	})
	k.SetRootProcess(root.Endpoint())
	k.installDeadPlaceholders(&MachineImage{procs: []procImage{{ep: ghost, name: "reaped"}}}, 1)

	if k.ProcessAlive(ghost) || k.procs.get(ghost).procLive != nil {
		t.Error("a placeholder looks alive")
	}
	if k.TerminateProcess(ghost) != ESRCH || k.FailStopProcess(ghost, "x") != ESRCH {
		t.Error("a placeholder can be killed")
	}
	if err := k.QuarantineProcess(ghost, "x"); err == nil {
		t.Error("a placeholder can be quarantined")
	}
	if _, err := k.ReplaceUserProcess(ghost, "exec", func(*Context) {}); err == nil {
		t.Error("a placeholder can be replaced")
	}
	if err := k.PostMessage(EpKernel, ghost, Message{}); err == nil {
		t.Error("a placeholder accepts mail")
	}
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}
