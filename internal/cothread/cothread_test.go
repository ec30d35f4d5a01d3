package cothread

import (
	"testing"

	"repro/internal/kernel"
)

// inProcess runs body as the root process of a one-process machine: a
// pool exists only inside the process whose coroutine its workers nest
// under. t.Fatal inside body ends the test as usual (a Goexit on a
// coroutine surfaces in whoever resumed it, here Run on the test's own
// goroutine).
func inProcess(t *testing.T, body func(ctx *kernel.Context)) {
	t.Helper()
	k := kernel.New(kernel.DefaultCostModel(), 1)
	root := k.SpawnUser("pool-owner", body)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(100_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 2)
		ran := false
		blocked := p.Thread(0).Start(func(*Thread) { ran = true })
		if blocked {
			t.Fatal("non-blocking job reported blocked")
		}
		if !ran {
			t.Fatal("job did not run")
		}
		if p.Thread(0).Busy() {
			t.Fatal("thread busy after completion")
		}
	})
}

func TestBlockAndResume(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 1)
		th := p.Thread(0)
		var got kernel.Message
		blocked := th.Start(func(t *Thread) {
			got = t.Block()
		})
		if !blocked {
			t.Fatal("Block did not report blocked")
		}
		if !th.Busy() {
			t.Fatal("blocked thread not busy")
		}
		stillBlocked := th.Resume(kernel.Message{A: 7})
		if stillBlocked {
			t.Fatal("completed thread reported blocked")
		}
		if got.A != 7 {
			t.Fatalf("delivered reply A = %d, want 7", got.A)
		}
	})
}

func TestMultipleBlocks(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 1)
		th := p.Thread(0)
		var sum int64
		blocked := th.Start(func(t *Thread) {
			for i := 0; i < 3; i++ {
				sum += t.Block().A
			}
		})
		for i := int64(1); i <= 3; i++ {
			if !blocked {
				t.Fatalf("thread not blocked before resume %d", i)
			}
			blocked = th.Resume(kernel.Message{A: i})
		}
		if blocked {
			t.Fatal("thread still blocked after final resume")
		}
		if sum != 6 {
			t.Fatalf("sum = %d, want 6", sum)
		}
	})
}

func TestIdleSelection(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 2)
		if got := p.Idle(); got == nil || got.ID() != 0 {
			t.Fatal("Idle() should return thread 0 first")
		}
		p.Thread(0).Start(func(t *Thread) { t.Block() })
		if got := p.Idle(); got == nil || got.ID() != 1 {
			t.Fatal("Idle() should return thread 1 when 0 is busy")
		}
		p.Thread(1).Start(func(t *Thread) { t.Block() })
		if p.Idle() != nil {
			t.Fatal("Idle() should return nil when all busy")
		}
		if p.BusyCount() != 2 {
			t.Fatalf("BusyCount() = %d, want 2", p.BusyCount())
		}
		p.KillAll()
	})
}

func TestPanicPropagatesToMainLoop(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 1)
		defer func() {
			if r := recover(); r != "thread bug" {
				t.Fatalf("recovered %v, want thread bug", r)
			}
			if p.Thread(0).Busy() {
				t.Fatal("panicked thread still busy")
			}
		}()
		p.Thread(0).Start(func(*Thread) { panic("thread bug") })
		t.Fatal("Start did not propagate the panic")
	})
}

func TestPanicAfterResumePropagates(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 1)
		th := p.Thread(0)
		th.Start(func(t *Thread) {
			t.Block()
			panic("late bug")
		})
		defer func() {
			if r := recover(); r != "late bug" {
				t.Fatalf("recovered %v, want late bug", r)
			}
		}()
		th.Resume(kernel.Message{})
		t.Fatal("Resume did not propagate the panic")
	})
}

func TestKillAllReapsBlockedThreads(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 3)
		for i := 0; i < 3; i++ {
			p.Thread(i).Start(func(t *Thread) {
				t.Block()
				panic("must not run after kill")
			})
		}
		p.KillAll()
		if p.BusyCount() != 0 {
			t.Fatalf("BusyCount() = %d after KillAll", p.BusyCount())
		}
		// KillAll on an already-idle pool is a no-op.
		p.KillAll()
	})
}

func TestStartOnBusyThreadPanics(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 1)
		th := p.Thread(0)
		th.Start(func(t *Thread) { t.Block() })
		defer func() {
			recover()
			p.KillAll()
		}()
		th.Start(func(*Thread) {})
		t.Fatal("Start on busy thread did not panic")
	})
}

func TestResumeOnIdleThreadPanics(t *testing.T) {
	inProcess(t, func(ctx *kernel.Context) {
		p := NewPool(ctx, 1)
		defer func() {
			if recover() == nil {
				t.Fatal("Resume on idle thread did not panic")
			}
		}()
		p.Thread(0).Resume(kernel.Message{})
	})
}
