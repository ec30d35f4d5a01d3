package kernel

import "testing"

// A coroutine outlives the body it ran: fifty children that run one
// after another share the few coroutines the machine ever had in use at
// once, and a process that is never dispatched costs none.
func TestCoroutinesAreReusedAcrossProcesses(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpDS, "echo", echoServer, ServerConfig{})
	idle := k.AddServer(EpVM, "never-dispatched", func(ctx *Context) {
		t.Error("a server that nobody wakes ran")
	}, ServerConfig{})
	idle.state = stateReceiving // as ApplyImage leaves a forked machine's idle server
	k.markSched(idle)
	ran := 0
	root := k.SpawnUser("parent", func(ctx *Context) {
		for i := 0; i < 50; i++ {
			child := k.SpawnUser("child", func(ctx *Context) {
				ctx.SendRec(EpDS, Message{Type: 100})
				ran++
			})
			for k.ProcessAlive(child.Endpoint()) {
				ctx.Yield()
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if ran != 50 {
		t.Fatalf("%d of 50 children ran", ran)
	}
	// parent, echo and the one child alive at a time.
	if k.corosCreated != 3 {
		t.Errorf("machine created %d coroutines for 3 processes mid-body at once, want 3", k.corosCreated)
	}
	if len(k.idleCoros) != 0 {
		t.Errorf("%d coroutines left on the free list after Run", len(k.idleCoros))
	}
}

// A killed body's coroutine goes back to the free list like one whose
// body returned: kill-and-respawn does not grow the machine either.
func TestKilledBodyReturnsItsCoroutine(t *testing.T) {
	k := newTestKernel()
	root := k.SpawnUser("parent", func(ctx *Context) {
		for i := 0; i < 20; i++ {
			victim := k.SpawnUser("victim", parkForever)
			ctx.Yield() // the victim parks in Receive
			if errno := k.TerminateProcess(victim.Endpoint()); errno != OK {
				t.Errorf("TerminateProcess = %v", errno)
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if k.corosCreated != 2 {
		t.Errorf("machine created %d coroutines for 2 processes mid-body at once, want 2", k.corosCreated)
	}
}
