package kernel

import "testing"

// The head-indexed inbox must behave as a FIFO across slab-drain
// resets, interleaved push/pop, and release/reacquire cycles.
func TestInboxQueueSemantics(t *testing.T) {
	p := &Process{procLive: &procLive{}}
	if p.queueLen() != 0 {
		t.Fatalf("fresh queue length = %d", p.queueLen())
	}

	next := int64(0) // next value to push
	want := int64(0) // next value expected from pop
	push := func(n int) {
		for i := 0; i < n; i++ {
			p.pushMsg(&Message{A: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			var m Message
			if p.popMsg(&m); m.A != want {
				t.Fatalf("pop = %d, want %d", m.A, want)
			}
			want++
		}
	}

	// Exercise the in-place reset: drain fully, then push again so the
	// consumed headroom is rewound instead of growing rightwards.
	push(3)
	pop(3)
	push(5)
	pop(2)
	push(4) // mid-queue push with live headroom
	pop(7)
	if p.queueLen() != 0 {
		t.Fatalf("queue length = %d after drain", p.queueLen())
	}

	// Grow past the pooled slab capacity and drain in FIFO order.
	push(inboxSlabCap * 3)
	pop(inboxSlabCap * 3)

	// Release returns the array; the queue stays usable afterwards.
	p.releaseInbox()
	if p.inbox != nil || p.inboxHead != 0 {
		t.Fatal("release did not detach the backing array")
	}
	push(2)
	pop(2)
}

// ReplaceProcess must carry a partially consumed queue into the
// replacement process: queued requests survive recovery even when the
// crashed instance had already consumed from the same backing array.
func TestReplaceProcessPreservesConsumedHeadQueue(t *testing.T) {
	k := New(DefaultCostModel(), 1)
	var served []int64
	body := func(ctx *Context) {
		for {
			m := ctx.Receive()
			served = append(served, m.A)
			if m.A == 1 {
				panic("injected crash after first request")
			}
		}
	}
	p := k.AddServer(EpDS, "srv", body, ServerConfig{})
	for i := int64(1); i <= 3; i++ {
		if err := k.PostMessage(EpKernel, EpDS, Message{A: i}); err != nil {
			t.Fatal(err)
		}
	}
	if p.queueLen() != 3 {
		t.Fatalf("queued = %d, want 3", p.queueLen())
	}

	k.SetCrashHandler(func(info CrashInfo) error {
		_, err := k.ReplaceProcess(EpDS, "srv", body, ServerConfig{})
		return err
	})
	root := k.SpawnUser("root", func(ctx *Context) {
		for i := 0; i < 500 && len(served) < 3; i++ {
			ctx.Tick(10)
			ctx.Yield()
		}
	})
	k.SetRootProcess(root.Endpoint())
	res := k.Run(testLimit)
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("run outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if len(served) != 3 || served[0] != 1 || served[1] != 2 || served[2] != 3 {
		t.Fatalf("served = %v, want [1 2 3]", served)
	}
}
