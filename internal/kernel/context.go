package kernel

import (
	"fmt"

	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/sim"
)

// Context is the system-call surface a process body uses to interact
// with the kernel: IPC, time, instrumentation points. A Context is
// bound to one process and must only be used from that process's body.
type Context struct {
	k *Kernel
	p *Process
}

// Endpoint returns the endpoint of the calling process.
func (c *Context) Endpoint() Endpoint { return c.p.ep }

// Kernel exposes the kernel for privileged components (PM, the
// recovery engine). User programs must not use it.
func (c *Context) Kernel() *Kernel { return c.k }

// Now returns the current virtual time.
func (c *Context) Now() sim.Cycles { return c.k.clock.Now() }

// Store-instrumentation surcharges on server computation. Server code
// is dense with memory writes; the LLVM pass instruments every one of
// them, so instrumented cycles run slower. While write logging is
// active each tick pays the full undo-log surcharge; in the optimized
// build, out-of-window code runs on the uninstrumented clone and pays
// only the window check at loop boundaries (§IV-D); the unoptimized
// build pays the full surcharge all the time.
const (
	// loggedTickNum/loggedTickDen: surcharge while logging (70%).
	loggedTickNum, loggedTickDen = 7, 10
	// checkTickDen: surcharge of the cloned fast path (4%).
	checkTickDen = 25
)

// Tick charges n cycles of computation to the virtual clock (plus the
// instrumentation surcharge for server code), accounts them against
// the recovery window, and cooperatively yields when the scheduling
// quantum is exhausted.
func (c *Context) Tick(n sim.Cycles) {
	if c.p.isServer {
		if scale := c.k.cost.ServerWorkScale; scale > 1 {
			n *= scale
		}
	}
	if st := c.p.store; st != nil {
		switch {
		case st.Logging():
			n += n * loggedTickNum / loggedTickDen
		case st.Mode() == memlog.Optimized:
			n += n / checkTickDen
		}
	}
	c.k.clock.Advance(n)
	if c.p.window != nil {
		c.p.window.AccountCycles(n)
	}
	c.p.quantumUsed += n
	if c.p.quantumUsed >= c.k.cost.Quantum {
		c.p.quantumUsed = 0
		c.Yield()
	}
}

// Yield hands the CPU to the scheduler, staying runnable.
func (c *Context) Yield() {
	c.p.checkKilled()
	c.p.state = stateRunnable
	c.k.markSched(c.p)
	c.p.yieldToKernel()
}

// Point marks an instrumentation point (the analogue of a basic block
// that EDFI could instrument): it feeds recovery-coverage accounting
// and gives the fault injector a place to trigger.
func (c *Context) Point(site string) {
	c.k.point(c.p, site)
}

// Receive blocks until a message is available and returns it. For
// servers, it also records the in-flight request for reconciliation.
func (c *Context) Receive() (m Message) {
	c.p.checkKilled()
	for c.p.queueLen() == 0 {
		c.p.state = stateReceiving
		c.k.markSched(c.p)
		c.p.yieldToKernel()
	}
	c.p.popMsg(&m)
	c.p.state = stateRunnable
	c.k.markSched(c.p)
	c.noteReceive(&m)
	if c.k.tracer != nil {
		c.k.tracer("recv: %s(%d) <- %d type=%d t=%d", c.p.name, c.p.ep, m.From, m.Type, c.k.clock.Now())
	}
	return m
}

// TryReceive returns a queued message without blocking, if any.
func (c *Context) TryReceive() (m Message, ok bool) {
	if c.p.queueLen() == 0 {
		return m, false
	}
	c.p.popMsg(&m)
	c.noteReceive(&m)
	return m, true
}

// noteReceive charges a received message and records it: as a server's
// in-flight request, and with the plane as the request it answers next.
func (c *Context) noteReceive(m *Message) {
	c.k.chargeIPC()
	if c.p.isServer {
		c.p.curSender = m.From
		c.p.curNeedsReply = m.NeedsReply
	}
	if c.k.ipc != nil {
		c.k.ipc.noteReceive(c.p, m)
	}
}

// SendRec sends m to dst and blocks until dst replies (or recovery
// replies on its behalf). The reply's Errno field carries the status;
// on IPC-level failure a synthetic reply with the errno is returned.
func (c *Context) SendRec(dst Endpoint, m Message) (reply Message) {
	c.p.checkKilled()
	if c.k.IsQuarantined(dst) {
		// Error virtualization for detached components: the request
		// fails exactly as if the component had crashed serving it.
		c.k.chargeIPC()
		c.k.counters.AddID(ctrQuarantineECrash, 1)
		return Message{From: dst, To: c.p.ep, Errno: ECRASH}
	}
	target := c.k.procs.get(dst)
	if target == nil || !target.Alive() {
		if target == nil || !c.k.RecoveryPending(dst) {
			return Message{From: dst, To: c.p.ep, Errno: EDEADSRCDST}
		}
		// The component crashed but a (possibly deferred) recovery is
		// queued: enqueue and block. The inbox survives the restart, so
		// the request is served once the component is back — or failed
		// with ECRASH if recovery escalates to quarantine or shutdown.
	}
	c.k.chargeIPC()
	m.From = c.p.ep
	m.To = dst
	m.NeedsReply = true
	if ipc := c.k.ipc; ipc != nil {
		// Interposed transmission: sequence/checksum the request, keep
		// a copy for retransmission, and arm the sender-side deadline.
		ipc.prepare(&m)
		c.p.pendingReq = m
		c.p.sendAttempts = 1
		c.p.sendRearms = 0
		ipc.xmit(&m, 1)
		c.k.armSendDeadline(c.p)
	} else {
		target.pushMsg(&m)
	}

	c.p.state = stateSendRec
	c.p.waitFrom = dst
	c.p.reply = nil
	c.k.markSched(c.p)
	for c.p.reply == nil {
		c.p.yieldToKernel()
	}
	reply = *c.p.reply
	c.p.reply = nil
	c.p.waitFrom = EpNone
	c.p.state = stateRunnable
	if c.k.ipc != nil {
		c.p.sendDeadline = 0
		c.p.pendingReq = Message{}
	}
	c.k.markSched(c.p)
	return reply
}

// Call is the SEEP-aware SendRec used by servers for inter-component
// requests: the recovery window observes the passage before the
// message leaves the component.
func (c *Context) Call(p seep.Passage, dst Endpoint, m Message) Message {
	if c.p.window != nil {
		c.p.window.ObservePassage(p)
	}
	return c.SendRec(dst, m)
}

// Send delivers m to dst asynchronously (no reply expected).
func (c *Context) Send(dst Endpoint, m Message) Errno {
	if c.k.IsQuarantined(dst) {
		c.k.counters.AddID(ctrQuarantineECrash, 1)
		return ECRASH
	}
	target := c.k.procs.get(dst)
	if target == nil || !target.Alive() {
		if target == nil || !c.k.RecoveryPending(dst) {
			return EDEADSRCDST
		}
		// Crashed but recovery pending: queue the message for the
		// replacement instance.
	}
	c.k.chargeIPC()
	m.From = c.p.ep
	m.To = dst
	m.NeedsReply = false
	if ipc := c.k.ipc; ipc != nil {
		ipc.prepare(&m)
		ipc.xmit(&m, 1)
		return OK
	}
	target.pushMsg(&m)
	return OK
}

// SendSeep is the SEEP-aware asynchronous send.
func (c *Context) SendSeep(p seep.Passage, dst Endpoint, m Message) Errno {
	if c.p.window != nil {
		c.p.window.ObservePassage(p)
	}
	return c.Send(dst, m)
}

// Reply answers the request of `to`. It is a state-modifying passage
// (information leaves the component), so the recovery window closes.
func (c *Context) Reply(to Endpoint, m Message) {
	if c.p.window != nil {
		// Named after the component, its class saying it is the reply:
		// a name concatenated per reply, or per process, costs host time
		// or a malloc per server on every boot and fork.
		c.p.window.ObservePassage(seep.Passage{Name: c.p.name, Class: seep.ClassReply})
	}
	if override, ok := c.k.replyErrnoOverride[c.p.ep]; ok {
		delete(c.k.replyErrnoOverride, c.p.ep)
		m.Errno = override
	}
	c.k.chargeIPC()
	if ipc := c.k.ipc; ipc != nil {
		ipc.xmitReply(c.p, to, &m)
		return
	}
	m.From = c.p.ep
	m.To = to
	if !c.k.deliverReply(&m) {
		// The caller died while we processed its request; drop the reply.
		c.k.counters.AddID(ctrRepliesDropped, 1)
	}
}

// ReplyErr is shorthand for replying with only an error status.
func (c *Context) ReplyErr(to Endpoint, errno Errno) {
	c.Reply(to, Message{Errno: errno})
}

// SetAlarm schedules a MsgAlarm delivery to the caller after delay
// cycles of virtual time.
func (c *Context) SetAlarm(delay sim.Cycles) {
	c.k.addAlarm(c.p.ep, c.k.clock.Now()+delay)
}

// Crash fail-stops the calling component immediately, as a defensive
// assertion would (paper §II-E). Never returns.
func (c *Context) Crash(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// Hang burns cycles forever; the quantum mechanism keeps the machine
// live, and the run ends by cycle limit (classified as a hang) unless a
// heartbeat notices first. It models hung-component faults.
func (c *Context) Hang() {
	for {
		c.Tick(c.k.cost.Quantum)
	}
}

// Process returns the Context's process handle (privileged users only).
func (c *Context) Process() *Process { return c.p }
