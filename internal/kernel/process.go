package kernel

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/sim"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	// stateRunnable: ready to run (not yet dispatched, or suspended with
	// its quantum spent).
	stateRunnable procState = iota + 1
	// stateReceiving: blocked in Receive; runnable once the inbox is
	// non-empty.
	stateReceiving
	// stateSendRec: blocked awaiting a reply from waitFrom; runnable
	// once the reply is delivered.
	stateSendRec
	// stateDead: exited or terminated; never scheduled again.
	stateDead
	// stateCrashed: fail-stopped; never scheduled again (its endpoint
	// may be taken over by a recovery clone).
	stateCrashed
)

// killedSignal is the panic payload that unwinds a killed process.
type killedSignal struct{}

// Body is the code of a simulated process.
type Body func(*Context)

// Process is one schedulable entity: an OS server or a user program.
//
// The struct itself holds only what the kernel reads of a process that
// can never run again; everything a running one needs on top is in
// procLive. A forked machine carries a dead placeholder for every test
// child the captured machine had reaped (installDeadPlaceholders), with
// a nil procLive — 64 bytes each instead of 512.
type Process struct {
	k        *Kernel
	ep       Endpoint
	name     string
	isServer bool
	state    procState

	// orderIdx is the process's position in k.order (and its bit index
	// in the readiness bitmap). Maintained by insertIntoOrder.
	orderIdx int

	*procLive
}

// procLive is the part of a Process only a process that can run has.
type procLive struct {
	body Body

	// co is the coroutine the body is on, from the process's first
	// dispatch until the body returns, crashes or is unwound (coro.go);
	// nil before and after, so a process that is never dispatched costs
	// no coroutine.
	co *coro
	// onChain says the body is parked inside its own switch into a
	// successor's coroutine: the process is a resumer on the chain, and
	// naming it passes control down to it (handOff).
	onChain bool
	// nested is set while a coroutine nested under the body (a cothread
	// worker) runs: only the body's own coroutine may suspend the process,
	// so a kernel call made down there asks it to through nested, leaving
	// the successor it named in handoff (RunNested).
	nested  func()
	handoff *Process

	// inbox is a head-indexed FIFO over a pooled backing array:
	// inbox[inboxHead:] are the queued messages. Access goes through
	// pushMsg/popMsg/queueLen so the slab can be recycled across boots.
	inbox     []Message
	inboxHead int

	waitFrom Endpoint
	reply    *Message
	// replyBuf backs reply so delivering a reply never heap-allocates:
	// setReply stores the message here and points reply at it. The
	// consumer (Context.sendrec) copies the value out before clearing
	// reply, so reusing the buffer for the next reply is safe.
	replyBuf Message

	// SendRec reliability state (IPC plane enabled only): the prepared
	// in-flight request for retransmission, the armed timeout deadline
	// (0 = none) and the transmission count so far. inDeadlines says
	// the plane's deadline index holds the process.
	pendingReq   Message
	sendDeadline sim.Cycles
	sendAttempts int
	sendRearms   int
	inDeadlines  bool

	// procRegs are the scalars an image carries (snapshot.go): the spent
	// quantum and the in-flight request bookkeeping.
	procRegs

	// Recovery attachments (servers only; nil for user processes).
	window *seep.Window
	store  *memlog.Store

	// onKill releases resources owned by the process body (e.g.
	// cooperative worker threads) when the process is torn down or the
	// component is replaced after a crash.
	onKill func()

	// killed latches that the process is being torn down: reap sets it
	// before the suspended body unwinds, at once or, for a resumer on the
	// chain, when control next reaches its frame.
	killed bool

	ctx Context

	// step is the server's per-request step (ServerConfig.Step).
	step Stepper
}

// procTable is the process table, indexed by endpoint: servers sit at
// 1–7 and users from EpUserBase up, and endpoints are never reused, so a
// lookup is a bounds-checked load. A slot holds the process currently at
// that endpoint — a dead placeholder stays, a replacement overwrites.
type procTable []*Process

// get returns the process at ep, or nil.
func (t procTable) get(ep Endpoint) *Process {
	if uint(ep) < uint(len(t)) {
		return t[ep]
	}
	return nil
}

// set places p at ep, growing the table to reach it.
func (t *procTable) set(ep Endpoint, p *Process) {
	t.grow(ep)
	(*t)[ep] = p
}

// grow extends the table to hold endpoint ep.
func (t *procTable) grow(ep Endpoint) {
	if n := int(ep) + 1; n > len(*t) {
		*t = append(*t, make(procTable, n-len(*t))...)
	}
}

// newProcess builds a runnable process (header, live part and Context
// in one allocation); the caller places it in the table and starts it.
func (k *Kernel) newProcess(ep Endpoint, name string, body Body, isServer bool, cfg ServerConfig) *Process {
	alloc := &struct {
		Process
		live procLive
	}{}
	p := &alloc.Process
	*p = Process{k: k, ep: ep, name: name, isServer: isServer, state: stateRunnable, procLive: &alloc.live}
	alloc.live = procLive{
		body:   body,
		window: cfg.Window,
		store:  cfg.Store,
		step:   cfg.Step,
		ctx:    Context{k: k, p: p},
	}
	return p
}

// inboxSlabCap is the capacity of pooled inbox backing arrays. Queues
// are short (a few outstanding requests per server); deeper queues grow
// past the slab and are simply not pooled.
const inboxSlabCap = 16

// inboxPool recycles inbox backing arrays across processes and
// simulated boots (campaigns create thousands of short-lived
// processes). Entries are slice pointers so Put/Get stay
// allocation-free.
var inboxPool = sync.Pool{New: func() any {
	s := make([]Message, 0, inboxSlabCap)
	return &s
}}

// setReply hands m to a process blocked in SendRec via the per-process
// reply buffer (no allocation).
func (p *Process) setReply(m *Message) {
	p.replyBuf = *m
	p.reply = &p.replyBuf
}

// pushMsg enqueues m, lazily attaching a pooled backing array and
// rewinding consumed headroom once the queue drains. A message arrival
// can make a receiving process schedulable, so the readiness bit is
// re-derived here.
func (p *Process) pushMsg(m *Message) {
	if p.inbox == nil {
		p.inbox = *inboxPool.Get().(*[]Message)
	} else if p.inboxHead == len(p.inbox) {
		// Fully drained: reset in place so the array is reused instead
		// of growing rightwards forever.
		p.inbox = p.inbox[:0]
		p.inboxHead = 0
	}
	p.inbox = append(p.inbox, *m)
	if p.k != nil {
		p.k.markSched(p)
	}
}

// pushMsgFront enqueues m at the head of the queue, ahead of messages
// already waiting (IPC reorder fault). Consumed headroom is reused when
// available; otherwise the queue shifts right by one.
func (p *Process) pushMsgFront(m *Message) {
	if p.inbox == nil {
		p.inbox = *inboxPool.Get().(*[]Message)
	}
	if p.inboxHead > 0 {
		p.inboxHead--
		p.inbox[p.inboxHead] = *m
	} else {
		p.inbox = append(p.inbox, Message{})
		copy(p.inbox[1:], p.inbox)
		p.inbox[0] = *m
	}
	if p.k != nil {
		p.k.markSched(p)
	}
}

// popMsg dequeues the oldest message into m; callers must check
// queueLen.
func (p *Process) popMsg(m *Message) {
	*m = p.inbox[p.inboxHead]
	p.inbox[p.inboxHead] = Message{} // drop payload references
	p.inboxHead++
}

// queueLen reports the number of queued messages.
func (p *Process) queueLen() int { return len(p.inbox) - p.inboxHead }

// releaseInbox detaches the backing array, returning pooled slabs for
// reuse. Any queued messages are dropped; contents are zeroed so the
// pool retains no references.
func (p *Process) releaseInbox() {
	if cap(p.inbox) == inboxSlabCap {
		slab := p.inbox[:cap(p.inbox)]
		for i := range slab {
			slab[i] = Message{}
		}
		slab = slab[:0]
		inboxPool.Put(&slab)
	}
	p.inbox = nil
	p.inboxHead = 0
}

// Endpoint returns the process endpoint.
func (p *Process) Endpoint() Endpoint { return p.ep }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Alive reports whether the process can still be scheduled.
func (p *Process) Alive() bool { return p.state != stateDead && p.state != stateCrashed }

// SetOnKill installs the teardown hook. Process bodies owning nested
// coroutines (cooperative threads) must set this; cothread.NewPool does.
func (p *Process) SetOnKill(fn func()) { p.onKill = fn }

// ServerConfig attaches recovery machinery to a server process, and
// optionally its per-request step for leaf calls (Stepper).
type ServerConfig struct {
	Window *seep.Window
	Store  *memlog.Store
	Step   Stepper
}

// AddServer registers an OS server at a fixed endpoint. The body runs
// when the scheduler first dispatches the process.
func (k *Kernel) AddServer(ep Endpoint, name string, body Body, cfg ServerConfig) *Process {
	return k.addProcess(ep, name, body, true, cfg)
}

// SpawnUser creates a user process with a fresh endpoint and returns it.
func (k *Kernel) SpawnUser(name string, body Body) *Process {
	ep := k.nextUserEp
	k.nextUserEp++
	return k.addProcess(ep, name, body, false, ServerConfig{})
}

func (k *Kernel) addProcess(ep Endpoint, name string, body Body, isServer bool, cfg ServerConfig) *Process {
	if k.procs.get(ep) != nil {
		panic(fmt.Sprintf("kernel: endpoint %d already registered", ep))
	}
	p := k.newProcess(ep, name, body, isServer, cfg)
	k.procs.set(ep, p)
	k.insertIntoOrder(ep)
	k.markSched(p)
	k.counters.AddID(ctrProcsCreated, 1)
	return p
}

// insertIntoOrder keeps the scheduling order sorted by endpoint so that
// runs are deterministic regardless of creation interleaving. Order
// positions of displaced processes (and their readiness bits) shift up
// with the insertion.
func (k *Kernel) insertIntoOrder(ep Endpoint) {
	i := sort.Search(len(k.order), func(i int) bool { return k.order[i] >= ep })
	k.order = append(k.order, 0)
	copy(k.order[i+1:], k.order[i:])
	k.order[i] = ep
	for _, moved := range k.order[i+1:] {
		if mp := k.procs.get(moved); mp != nil {
			mp.orderIdx++
		}
	}
	k.ready.insert(i, len(k.order))
	k.procs[ep].orderIdx = i
}

// runBody executes the process body, trapping crashes and the kill that
// unwinds it. Its recover is the outermost frame of every body: a panic
// that gets past it is a bug in the kernel. A kernelFault — a panic out of
// a coroutine switch the body made — is re-raised, not taken for the
// body's crash, so it passes down the chain to the kernel loop and out of
// Run. A killed body was finalized by reap before it unwound, maybe after
// a replacement took its endpoint, so its unwinding touches no scheduler
// state.
func (p *Process) runBody() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if f, ok := r.(kernelFault); ok {
			panic(f)
		}
		if _, isKill := r.(killedSignal); isKill {
			return
		}
		// Fail-stop crash: queue it for the kernel loop. Crashes that
		// arrive while another recovery is queued or active are handled
		// serially, in trap order.
		if !p.killed {
			p.state = stateCrashed
			p.k.markSched(p)
		}
		p.k.counters.AddID(ctrPanicsTrapped, 1)
		p.k.queueCrash(CrashInfo{
			Victim:         p.ep,
			Name:           p.name,
			CurSender:      p.curSender,
			CurNeedsReply:  p.curNeedsReply,
			PanicValue:     r,
			DuringRecovery: p.k.inRecovery,
		}, p.k.clock.Now())
	}()
	p.body(&p.ctx)
	p.state = stateDead
	p.k.markSched(p)
	p.k.noteExit(p)
}

// yieldToKernel hands the CPU on and suspends until re-dispatched. It
// panics with killedSignal when the kernel tears the process down.
//
// Fused dispatch: when a full trip through the kernel loop would do
// nothing but pick the next process — no due crash or alarm, run not
// done, cycle limit not reached — the dispatch is counted here and the
// process suspends naming that successor, which it switches to itself
// (handOff) without re-running the loop's checks. Handing off to
// ourselves degenerates to not switching at all.
//
// Leaf steps: while the pick is a server the process may serve itself
// (serveLeaf), it does, and takes the pick the server's Receive makes —
// until one is not, a step panicked (the server then runs, to raise it)
// or left a message queued (the server then runs, to take it), or a step
// reaped the process, whose frame then unwinds and hands the pick on.
func (p *Process) yieldToKernel() {
	k := p.k
	next := k.fusedNext()
	for next != nil {
		k.counters.AddID(ctrDispatches, 1)
		if next == p || p.killed || !k.serveLeaf(p, next) || k.raise != nil || next.queueLen() > 0 {
			break
		}
		next.state = stateReceiving
		k.markSched(next)
		next = k.fusedNext()
	}
	switch {
	case next == p:
	case p.killed:
		p.co.handTo = next
		panic(killedSignal{})
	default:
		p.suspend(next)
	}
}

// suspend switches the process out — into next, or down the chain to
// next or to the kernel loop when next is nil or a resumer below (coro.go)
// — and returns when the process is dispatched again. Reaped meanwhile,
// it unwinds the body; handed a panic of its leaf step (serveLeaf), it
// raises it. Under a nested coroutine the body's own coroutine does it on
// the caller's behalf.
func (p *Process) suspend(next *Process) {
	if relay := p.nested; relay != nil {
		p.handoff = next
		relay()
		return
	}
	k := p.k
	k.handOff(p, next)
	p.checkKilled()
	if r := k.raise; r != nil {
		k.raise = nil
		panic(r)
	}
}

// RunNested is how a process body runs a coroutine nested under its own
// (a cothread worker). resume switches into the nested coroutine and
// reports, once that switches back, whether it did so from relay — what a
// kernel call made down there invokes in place of suspending the process,
// which only the body's own coroutine may do. RunNested then suspends the
// process and switches in again once it is dispatched, for as long as
// resume asks. A kill that arrives meanwhile unwinds the body from here
// and leaves the nested coroutine parked in relay for onKill to unwind.
//
// Only the running process may call it: a pool driven from any other flow
// of control would suspend the wrong process, silently — so that panics.
func (p *Process) RunNested(resume func() (suspend bool), relay func()) {
	if p.k.running != p {
		panic(fmt.Sprintf("kernel: nested coroutine of %s(%d) resumed outside its process", p.name, p.ep))
	}
	outer := p.nested
	p.nested = relay
	for resume() {
		p.nested = outer
		p.suspend(p.handoff)
		p.nested = relay
	}
	p.nested = outer
}

// checkKilled raises the kill in a body reaped while suspended, and
// re-raises it in one that is already unwinding. The kill panic runs the
// body's deferred calls, and user programs defer system calls
// (`defer p.Unlink(path)`): such a call must neither touch kernel state
// nor suspend — the process is already finalized, and its frame is on its
// way out of a switch that reap or a pass-down made — so every Context
// call that can block starts here.
func (p *Process) checkKilled() {
	if p.killed {
		panic(killedSignal{})
	}
}

// schedulable reports whether the scheduler may dispatch the process.
func (p *Process) schedulable() bool {
	switch p.state {
	case stateRunnable:
		return true
	case stateReceiving:
		return p.queueLen() > 0
	case stateSendRec:
		return p.reply != nil
	default:
		return false
	}
}

// noteExit handles normal termination of a process body.
func (k *Kernel) noteExit(p *Process) {
	if p.ep == k.rootEp && !k.done {
		k.done = true
		k.outcome = OutcomeCompleted
		k.reason = "root process exited"
	}
}

// TerminateProcess forcibly ends a parked process (used by PM for exit
// and kill). It must not be called on the currently running process —
// a process terminates itself by returning from its body.
func (k *Kernel) TerminateProcess(ep Endpoint) Errno {
	p := k.procs.get(ep)
	if p == nil || !p.Alive() {
		return ESRCH
	}
	if p == k.running {
		panic("kernel: TerminateProcess on the running process")
	}
	k.killProcess(p)
	return OK
}

// reap ends whatever p still has of a running process and leaves it in
// state final: stateDead, or stateCrashed for an endpoint that awaits a
// replacement and keeps its inbox for it. The process is finalized at
// once — state, killed latch, inbox, readiness — and its body unwinds,
// after which its coroutine releases onKill (coro.run). A body parked off
// the chain is resumed here to unwind; a resumer on the chain (a caller
// whose server reaps it: exit, exec, a hang kill) is parked inside a
// switch and unwinds when control next reaches its frame; a process that
// never ran, exited or crashed has no body left and releases onKill now.
// p must not be running.
//
// One ordering is required: the latch is set before anything unwinds, so
// that a deferred system call — in the body or in a worker's job —
// re-raises the kill instead of suspending. The body goes before onKill
// only so its deferred calls still find what onKill releases: a worker is
// nested under the body's coroutine and parks on its own switch even
// inside a kernel call (RunNested), never on the process's.
func (p *Process) reap(final procState) {
	p.state = final
	p.killed = true
	if final == stateDead {
		p.releaseInbox()
	}
	p.k.markSched(p)
	switch {
	case p.onChain:
	case p.co != nil:
		p.co.enter()
	default:
		p.releaseOnKill()
	}
}

// releaseOnKill runs the teardown hook once.
func (p *Process) releaseOnKill() {
	if p.onKill != nil {
		p.onKill()
		p.onKill = nil
	}
}

// killProcess tears down a suspended or finished process.
func (k *Kernel) killProcess(p *Process) {
	if p.ep == k.rootEp && !k.done {
		// The root workload process ended (exit syscall or kill):
		// the run is complete.
		k.done = true
		k.outcome = OutcomeCompleted
		k.reason = "root process terminated"
	}
	p.reap(stateDead)
}

// killAll tears down every process at the end of Run, which leaves every
// coroutine the machine holds on its free list, and ends them on a
// private arena.
func (k *Kernel) killAll() {
	for _, ep := range k.order {
		if p := k.procs.get(ep); p != nil && p.procLive != nil {
			p.reap(stateDead) // nothing to tear down behind a dead placeholder
		}
	}
	if k.arena.private {
		k.stopIdleCoros()
	}
}

// ReplaceProcess installs a fresh body at a crashed (or alive) server
// endpoint, preserving the inbox so queued requests survive recovery.
// The recovery engine uses this during the restart phase. The previous
// body is reaped. Window and store attachments are replaced.
func (k *Kernel) ReplaceProcess(ep Endpoint, name string, body Body, cfg ServerConfig) (*Process, error) {
	return k.replaceProcess(ep, name, body, cfg, true)
}

// ReplaceUserProcess swaps the image of a user process (exec): the old
// body is reaped and a fresh one starts at the same endpoint.
func (k *Kernel) ReplaceUserProcess(ep Endpoint, name string, body Body) (*Process, error) {
	return k.replaceProcess(ep, name, body, ServerConfig{}, false)
}

func (k *Kernel) replaceProcess(ep Endpoint, name string, body Body, cfg ServerConfig, isServer bool) (*Process, error) {
	old := k.procs.get(ep)
	if old == nil || old.procLive == nil {
		return nil, fmt.Errorf("kernel: no process at endpoint %d", ep)
	}
	if k.IsQuarantined(ep) {
		return nil, fmt.Errorf("kernel: endpoint %d is quarantined", ep)
	}
	// Detach the queued messages before the teardown releases the backing
	// array back to the pool: they survive into the replacement process.
	savedInbox, savedHead := old.inbox, old.inboxHead
	old.inbox, old.inboxHead = nil, 0
	if old.state == stateCrashed {
		// The crashed body has already unwound; what is left to reap are
		// the worker threads it left parked.
		old.reap(stateDead)
	} else if old.state != stateDead {
		k.killProcess(old)
	}

	p := k.newProcess(ep, name, body, isServer, cfg)
	p.inbox, p.inboxHead = savedInbox, savedHead
	k.procs.set(ep, p)
	// Endpoint already present in k.order: keep position (and bit index).
	p.orderIdx = old.orderIdx
	k.markSched(p)
	k.counters.AddID(ctrProcsReplaced, 1)
	return p, nil
}

// FailStopProcess converts a live but unresponsive process into a
// fail-stop crash: the body is unwound and a synthetic crash is
// queued for the recovery engine, exactly as if the component had
// panicked. The Recovery Server uses it when hang detection declares a
// component dead (paper §II-E: hangs become fail-stops). It returns
// ESRCH when ep is already dead, crashed or quarantined.
func (k *Kernel) FailStopProcess(ep Endpoint, reason string) Errno {
	p := k.procs.get(ep)
	if p == nil || !p.Alive() || k.IsQuarantined(ep) {
		return ESRCH
	}
	if p == k.running {
		panic("kernel: FailStopProcess on the running process")
	}
	// Capture the in-flight request before unwinding so reconciliation
	// can error-virtualize it.
	info := CrashInfo{
		Victim:         ep,
		Name:           p.name,
		CurSender:      p.curSender,
		CurNeedsReply:  p.curNeedsReply,
		PanicValue:     reason,
		DuringRecovery: k.inRecovery,
	}
	// The endpoint is left crashed-awaiting-recovery: Alive() is false and
	// the inbox waits for the replacement.
	p.reap(stateCrashed)
	k.counters.AddID(ctrFailstops, 1)
	if k.tracer != nil {
		k.tracer("failstop: %s(%d): %s", p.name, ep, reason)
	}
	k.queueCrash(info, k.clock.Now())
	return OK
}

// FailPendingCallers delivers an error reply to every process blocked
// in SendRec on ep. The recovery engine calls this during
// reconciliation so no caller waits on a rolled-back component forever.
func (k *Kernel) FailPendingCallers(ep Endpoint, errno Errno) int {
	failed := 0
	for _, oep := range k.order {
		p := k.procs.get(oep)
		if p == nil || p.state != stateSendRec || p.waitFrom != ep {
			continue
		}
		p.setReply(&Message{Type: 0, From: ep, To: p.ep, Errno: errno})
		k.markSched(p)
		failed++
	}
	return failed
}

// DeliverReply injects a reply from `from` to a process blocked in
// SendRec on `from`. Used by the recovery engine for error
// virtualization of the in-flight request.
func (k *Kernel) DeliverReply(from, to Endpoint, m Message) error {
	m.From = from
	m.To = to
	if !k.deliverReply(&m) {
		return fmt.Errorf("kernel: reply target %d not alive", to)
	}
	return nil
}

// deliverReply is DeliverReply for a message whose From and To are set:
// it reports false, allocating nothing, when the target is not alive.
func (k *Kernel) deliverReply(m *Message) bool {
	p := k.procs.get(m.To)
	if p == nil || !p.Alive() {
		return false
	}
	if p.state == stateSendRec && p.waitFrom == m.From {
		p.setReply(m)
		k.markSched(p)
		if k.tracer != nil {
			k.tracer("reply: %d -> %s(%d) errno=%v", m.From, p.name, m.To, m.Errno)
		}
		return true
	}
	// Not blocked on us: deliver asynchronously.
	if k.tracer != nil {
		k.tracer("reply-async: %d -> %s(%d) errno=%v state=%d", m.From, p.name, m.To, m.Errno, p.state)
	}
	p.pushMsg(m)
	return true
}

// PostMessage appends a message to the inbox of `to`, as if sent by
// `from`, without a sending process. The recovery engine uses this to
// notify PM of user-process crashes and RS of completed recoveries.
func (k *Kernel) PostMessage(from, to Endpoint, m Message) error {
	p := k.procs.get(to)
	if p == nil || !p.Alive() {
		return fmt.Errorf("kernel: post target %d not alive", to)
	}
	m.From = from
	m.To = to
	m.NeedsReply = false
	p.pushMsg(&m)
	return nil
}

// ProcessAlive reports whether the endpoint hosts a live process.
func (k *Kernel) ProcessAlive(ep Endpoint) bool {
	p := k.procs.get(ep)
	return p != nil && p.Alive()
}
