package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// Stepper is the per-request step of a server whose body, past its
// start-up, is the loop `for { step(ctx, ctx.Receive()) }` and which
// receives nowhere else. Registered in ServerConfig, it lets the kernel
// serve a leaf call on the coroutine of the process whose yield picks the
// server: a message that the step serves without suspending the server,
// the way a MINIX kernel call is a trap, not a switch to another process.
type Stepper interface {
	// Step serves one received request, as the server's loop does.
	Step(c *Context, m Message)
	// Leaf reports whether Step serves m without suspending the server
	// and, if so, a bound on the ticks it charges: the n of its
	// Context.Tick calls, summed.
	Leaf(m *Message) (ticks sim.Cycles, ok bool)
}

// LeafCalls reports how many steps the machine served on a yielding
// process's coroutine and how many coroutine switches it made. Both are
// host statistics, not simulated state.
func (k *Kernel) LeafCalls() (served, switches uint64) { return k.leafCalls, k.switches }

// serveLeaf serves, on p's coroutine at its yield, the request t, the
// fused pick, would take if p switched into it, when that switch would do
// nothing else: t has a step, is parked at its loop's Receive with only
// this message queued, the step declares it a leaf, and its tick bound
// fits t's quantum. It reports false, having changed nothing, otherwise.
//
// Served, it does what t's coroutine would — return from Receive with the
// message and run the step — and leaves to p's yield what t's Receive does
// next. The clock, the counters, the IPC plane and the trace move exactly
// as on the switch path, an armed point hook fires at the same points, and
// meanwhile p stands on the chain, as it would inside its switch into t. A
// panic out of the step — a crash, or the point hook's — is left in
// k.raise for t's coroutine, parked in Receive, to raise, so that runBody
// traps it as t's crash; a step that tries to suspend, or charges more
// than its bound, is a kernelFault.
//
// t may be a resumer below p on the chain — a server that switched into
// its caller and is served in ping-pong, the common case of getpid. The
// switch path would pass control down to it, taking p and the frames
// between off the chain; here they stay on it while the step runs, so a
// process among them that the step reaps unwinds when control next
// reaches its frame, not at once. Nothing simulated tells the two apart:
// a reaped body's unwinding re-raises the kill at its first kernel call.
func (k *Kernel) serveLeaf(p, t *Process) bool {
	if t.step == nil || p.nested != nil || t.state != stateReceiving ||
		t.co == nil || t.nested != nil || t.queueLen() != 1 {
		return false
	}
	ticks, ok := t.step.Leaf(&t.inbox[t.inboxHead])
	bound := k.maxCharge(t, ticks)
	if !ok || t.quantumUsed+bound >= k.cost.Quantum {
		return false
	}
	k.leafCalls++
	// t's Receive, resumed: its queue holds the request, so it takes it
	// at once. A suspension of t in the step asks its nested relay.
	m := t.ctx.Receive()
	used := t.quantumUsed
	p.onChain, k.running, t.nested = true, t, leafSuspended
	r := runStep(t, &m)
	p.onChain, k.running, t.nested = false, p, nil
	switch r.(type) {
	case nil:
		if t.quantumUsed-used > bound {
			panic(kernelFault{fmt.Sprintf("the leaf step of %s(%d) for request type %d overran its bound of %d ticks", t.name, t.ep, m.Type, ticks)})
		}
	case leafSuspension:
		panic(kernelFault{fmt.Sprintf("the leaf step of %s(%d) for request type %d tried to suspend", t.name, t.ep, m.Type)})
	case kernelFault:
		panic(r)
	default:
		k.raise = r
	}
	return true
}

// runStep runs t's step on m and returns what it panicked with, if
// anything.
func runStep(t *Process, m *Message) (r any) {
	defer func() { r = recover() }()
	t.step.Step(&t.ctx, *m)
	return nil
}

// leafSuspended is a server's nested relay while its step runs on a
// yielding process's coroutine: a suspension there would park that frame
// in the server's place, so it unwinds the step, and serveLeaf raises a
// kernelFault naming the server and the request.
func leafSuspended() { panic(leafSuspension{}) }

// leafSuspension is the panic of leafSuspended.
type leafSuspension struct{}

// maxCharge is the most that n ticks of Tick charge p's quantum: scaled
// for a server and with the write-logging surcharge.
func (k *Kernel) maxCharge(p *Process, n sim.Cycles) sim.Cycles {
	if scale := k.cost.ServerWorkScale; p.isServer && scale > 1 {
		n *= scale
	}
	if p.store != nil {
		n += n * loggedTickNum / loggedTickDen
	}
	return n
}
