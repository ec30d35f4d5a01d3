package kernel

import (
	"fmt"
	"strings"
	"testing"
)

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

// replyServer answers every request with A+1 and charges nothing, so no
// quantum expiry interleaves with the switches a test counts.
func replyServer(ctx *Context) {
	for {
		m := ctx.Receive()
		ctx.Reply(m.From, Message{Type: m.Type, A: m.A + 1})
	}
}

// relayServer forwards every request to EpDS and relays the answer.
func relayServer(ctx *Context) {
	for {
		m := ctx.Receive()
		r := ctx.SendRec(EpDS, Message{Type: m.Type, A: m.A})
		ctx.Reply(m.From, r)
	}
}

// A process that blocks switches straight into its successor, and a reply
// passes control back down to the process that switched: a SendRec round
// trip costs two coroutine switches, one relayed through a second server
// four, and a Yield that picks the yielder none.
func TestSendRecSwitchBudget(t *testing.T) {
	k := newTestKernel()
	k.AddServer(EpVFS, "relay", relayServer, ServerConfig{})
	k.AddServer(EpDS, "echo", replyServer, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		cost := func(call func()) uint64 {
			before := k.switches
			call()
			return k.switches - before
		}
		// Warm up: both servers parked in Receive, off the chain.
		ctx.SendRec(EpDS, Message{Type: 100})
		ctx.SendRec(EpVFS, Message{Type: 100})
		for i := 0; i < 3; i++ {
			if n := cost(func() { ctx.SendRec(EpDS, Message{Type: 100}) }); n != 2 {
				t.Errorf("round %d: round trip to the echo server cost %d switches, want 2", i, n)
			}
			if n := cost(func() { ctx.SendRec(EpVFS, Message{Type: 100}) }); n != 4 {
				t.Errorf("round %d: relayed round trip cost %d switches, want 4", i, n)
			}
			if n := cost(ctx.Yield); n != 0 {
				t.Errorf("round %d: Yield to self cost %d switches, want 0", i, n)
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// parkedServer adds a server at ep that is parked in Receive without
// having run, as ApplyImage leaves a forked machine's idle server: its
// first dispatch is the fused hand-off of the first request to it, so it
// sits off the chain — not below its callers.
func parkedServer(k *Kernel, ep Endpoint, body Body) *Process {
	p := k.AddServer(ep, "server", body, ServerConfig{})
	p.state = stateReceiving
	k.markSched(p)
	return p
}

// reapCallerRounds runs the shape of a PM exit or exec, twenty times: a
// parent spawns a child and yields until it is gone; the child SendRecs a
// server, whose handler reaps it with reap while the child, having
// switched into the server, is a resumer on the chain. The child defers a
// blocking kernel call, which must re-raise the kill. It returns the
// events of every round, space-separated, and the round's coroutine
// switches, one string per round.
func reapCallerRounds(t *testing.T, reap func(k *Kernel, child Endpoint, note func(string))) (*Kernel, []string) {
	const rounds = 20
	k := newTestKernel()
	var log []string
	note := func(s string) { log = append(log, s) }
	parkedServer(k, EpDS, func(ctx *Context) {
		for {
			m := ctx.Receive()
			if m.Type != 100 {
				t.Errorf("server received type %d: a reaped child's deferred call crossed the kernel", m.Type)
			}
			child := k.procs.get(m.From)
			if !child.onChain {
				t.Errorf("child %d is off the chain while its server serves it", m.From)
			}
			reap(k, m.From, note)
			// The endpoint's readiness bit is the child's until a
			// replacement takes the endpoint.
			stillReady := k.procs.get(m.From) == child && k.ready.get(child.orderIdx)
			if child.Alive() || stillReady || child.inbox != nil {
				t.Errorf("reaped child %d is not finalized at once", m.From)
			}
			note("reaped")
		}
	})
	var rows []string
	root := k.SpawnUser("parent", func(ctx *Context) {
		for i := 0; i < rounds; i++ {
			log = log[:0]
			before := k.switches
			child := k.SpawnUser("child", func(ctx *Context) {
				defer func() {
					note("unwound")
					ctx.SendRec(EpDS, Message{Type: 101}) // re-raises the kill
					t.Error("a reaped child's deferred SendRec returned")
				}()
				ctx.SendRec(EpDS, Message{Type: 100})
				t.Error("a reaped child's SendRec returned")
			})
			for n := 0; k.ProcessAlive(child.Endpoint()); n++ {
				if n == 100 {
					t.Errorf("round %d: the child's endpoint is still alive after %d yields", i, n)
					return
				}
				ctx.Yield()
			}
			note("parent")
			rows = append(rows, fmt.Sprintf("%s (%d switches)", strings.Join(log, " "), k.switches-before))
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if len(rows) != rounds {
		t.Fatalf("%d of %d rounds completed", len(rows), rounds)
	}
	return k, rows
}

// A caller that a server terminates while the caller is a resumer on the
// chain (PM's exit) is finalized at once; its body unwinds when control
// next passes down through its frame, its deferred kernel call re-raises
// the kill, and the successor its frame was handed — the parent — runs
// next, straight from the frame: four switches a round — into the child,
// into the server, and back down through the child to the parent. Its
// coroutine goes back to the free list each round.
func TestTerminatedResumerUnwindsOnPassDown(t *testing.T) {
	k, rows := reapCallerRounds(t, func(k *Kernel, child Endpoint, _ func(string)) {
		if errno := k.TerminateProcess(child); errno != OK {
			t.Errorf("TerminateProcess = %v", errno)
		}
	})
	for i, row := range rows {
		if want := "reaped unwound parent (4 switches)"; row != want {
			t.Errorf("round %d: %q, want %q", i, row, want)
		}
	}
	// parent, server and the one child alive at a time.
	if k.corosCreated != 3 {
		t.Errorf("machine created %d coroutines over 20 rounds, want 3", k.corosCreated)
	}
	// The child's request and its receipt, per round: no deferred call
	// crossed the kernel.
	if hops := k.Counters().Get("kernel.msg_hops"); hops != 40 {
		t.Errorf("kernel.msg_hops = %d, want 40", hops)
	}
}

// The same with exec: the reaped caller's endpoint gets a fresh body
// while the old body is still parked on the chain. The old frame unwinds
// first, without touching the replacement's scheduling state, and the
// replacement runs: the four switches of an exit, two more into and out
// of the replacement, whose end passes control down to the kernel loop,
// and the loop's dispatch of the parent.
func TestReplacedResumerUnwindsOnPassDown(t *testing.T) {
	k, rows := reapCallerRounds(t, func(k *Kernel, child Endpoint, note func(string)) {
		if _, err := k.ReplaceUserProcess(child, "image", func(*Context) { note("image") }); err != nil {
			t.Errorf("ReplaceUserProcess: %v", err)
		}
	})
	for i, row := range rows {
		if want := "reaped unwound image parent (8 switches)"; row != want {
			t.Errorf("round %d: %q, want %q", i, row, want)
		}
	}
	if k.corosCreated != 3 {
		t.Errorf("machine created %d coroutines over 20 rounds, want 3", k.corosCreated)
	}
}

// A panic out of a coroutine switch is a kernel fault: here a server
// resumes its caller, which is parked on the chain inside its own switch
// into the server, and iter.Pull refuses. Neither the server nor the
// caller, whose switch the panic unwinds, is taken for a crashed
// component: the panic reaches Run's caller.
func TestKernelFaultReachesRunCaller(t *testing.T) {
	k := newTestKernel()
	var caller *Process
	parkedServer(k, EpDS, func(ctx *Context) {
		ctx.Receive()
		caller.co.enter()
		t.Error("resuming a frame on the chain returned")
	})
	caller = k.SpawnUser("caller", func(ctx *Context) {
		ctx.SendRec(EpDS, Message{Type: 100})
		t.Error("the caller's SendRec returned")
	})
	k.SetRootProcess(caller.Endpoint())
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run(testLimit)
	}()
	f, ok := got.(kernelFault)
	if !ok {
		t.Fatalf("Run's caller recovered %v (%T), want a kernelFault", got, got)
	}
	if !strings.Contains(f.Error(), "next called again before yield") {
		t.Errorf("fault = %v, want iter.Pull's refusal", f)
	}
	if n := k.Counters().Get("kernel.panics_trapped"); n != 0 || len(k.pendingCrashes) != 0 {
		t.Errorf("%d panics trapped, %d crashes queued: a kernel fault was taken for a component crash", n, len(k.pendingCrashes))
	}
}
