package kernel

import (
	"strings"
	"testing"
)

// echoMachine builds a machine on arena a whose root makes calls round
// trips to an echo server, each from a child of its own when children is
// set, and runs it to completion. It may run on any goroutine.
func echoMachine(t *testing.T, a *Arena, calls int, children bool) *Kernel {
	k := NewIn(a, DefaultCostModel(), 1)
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{})
	root := k.SpawnUser("root", func(ctx *Context) {
		for i := 0; i < calls; i++ {
			if !children {
				ctx.SendRec(EpDS, Message{Type: 100})
				continue
			}
			child := k.SpawnUser("child", func(ctx *Context) { ctx.SendRec(EpDS, Message{Type: 100}) })
			for k.ProcessAlive(child.Endpoint()) {
				ctx.Yield()
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Errorf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	return k
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(r.(string), want) {
			t.Errorf("panic = %v, want one containing %q", r, want)
		}
	}()
	f()
}

// An arena serves one live machine at a time: a second machine taking it
// before the first is released panics, and so do releasing a machine
// that has not finished and closing an arena a machine still uses.
func TestArenaServesOneLiveMachine(t *testing.T) {
	a := new(Arena)
	k := NewIn(a, DefaultCostModel(), 1)
	mustPanic(t, "already serves a live machine", func() { NewIn(a, DefaultCostModel(), 2) })
	mustPanic(t, "not finished", k.Release)
	mustPanic(t, "serves a live machine", a.Close)
	k.Teardown("test")
	k.Release()
	mustPanic(t, "not its arena's", k.Release)
	echoMachine(t, a, 3, false).Release()
	a.Close()
}

// The machine after the first on an arena takes every coroutine it needs
// from it, on whatever goroutine it runs; the arena then holds as many as
// the last machine had bodies running at once, and a machine on a private
// arena ends its own at teardown, as before arenas existed.
func TestArenaHandsCoroutinesOn(t *testing.T) {
	a := new(Arena)
	defer a.Close()
	first := echoMachine(t, a, 5, true)
	if first.corosCreated != 3 {
		t.Fatalf("first machine created %d coroutines, want 3 (root, echo, a child)", first.corosCreated)
	}
	first.Release()
	if len(a.coros) != 3 {
		t.Fatalf("arena holds %d coroutines after the first machine, want 3", len(a.coros))
	}
	for _, c := range a.coros {
		if c.k != nil || c.p != nil {
			t.Fatal("an idle coroutine in the arena is still bound to a machine or process")
		}
	}
	if first.procs != nil || first.order != nil {
		t.Error("a released machine kept its process table or scheduling order")
	}

	done := make(chan *Kernel)
	go func() { done <- echoMachine(t, a, 5, true) }()
	second := <-done
	if second.corosCreated != 0 {
		t.Errorf("second machine created %d coroutines, want 0", second.corosCreated)
	}
	second.Release()

	third := echoMachine(t, a, 1, false)
	third.Release()
	if len(a.coros) != 2 {
		t.Errorf("arena holds %d coroutines after a machine that ran 2 bodies at once, want 2", len(a.coros))
	}

	private := echoMachine(t, nil, 5, true)
	if len(private.idleCoros) != 0 || len(private.arena.coros) != 0 {
		t.Errorf("a machine on a private arena kept %d+%d coroutines after Run", len(private.idleCoros), len(private.arena.coros))
	}
}
