//go:build go1.23

// Package cothread provides the cooperative thread library used by
// multithreaded OSIRIS servers (the VFS in the prototype, paper §IV-E).
//
// A Pool owns a fixed set of worker threads inside one server process.
// Threads run strictly one at a time, interleaved with the server's
// main request loop: the main loop starts a thread on a request, the
// thread may Block awaiting an asynchronous reply (e.g. from the disk
// driver), and the main loop later resumes it when the reply arrives.
//
// A worker is a host coroutine (iter, hence the go1.23 line: see
// kernel/coro.go) nested under the one its server's body runs on, made at
// the thread's first Start and fed every later job: Start and Resume
// switch into it and return when it switches back — one flow of control,
// so the simulation stays deterministic. The kernel resumes processes,
// not workers: a kernel call in a job that must suspend the process
// (ctx.Tick past the quantum, ctx.SendRec) switches back to the main loop
// inside Start/Resume, which suspends and later switches in again
// (kernel.Process.RunNested). Hence a pool is made from its process's
// Context and cannot exist without one.
//
// A panic inside a thread propagates to the server main loop when the
// thread yields back — fail-stopping the entire component, as a crash
// in any thread of a real server process would.
package cothread

import (
	"iter"

	"repro/internal/kernel"
)

// yieldKind says why a thread returned control to the main loop.
type yieldKind int

const (
	yieldBlocked yieldKind = iota + 1
	yieldDone
	yieldPanicked
	yieldKernel // a kernel call inside the job needs the process suspended
)

type killedThread struct{}

// Thread is one cooperative worker.
type Thread struct {
	id   int
	busy bool
	proc *kernel.Process

	// The worker coroutine: next switches into it, yield (called on it)
	// switches back, stop ends it while idle; step and relay are what
	// RunNested drives it through, bound once.
	next  func() (yieldKind, bool)
	stop  func()
	yield func(yieldKind) bool
	step  func() bool
	relay func()

	// Carried across a switch — in: the job, the reply, the kill; out: why
	// the worker switched back and the panic it died of.
	job      func(*Thread)
	reply    kernel.Message
	kill     bool
	out      yieldKind
	panicVal any
}

// ID returns the thread's index within its pool. A server that keeps
// something per request in service keeps it per thread, under this index,
// made once with the pool.
func (t *Thread) ID() int { return t.id }

// Busy reports whether the thread is between Start and completion.
func (t *Thread) Busy() bool { return t.busy }

// Pool is a fixed-size set of cooperative threads.
type Pool struct {
	threads []*Thread
}

// NewPool creates a pool of n idle threads inside the process ctx belongs
// to, and makes the process's teardown hook reap them. Only that process's
// body may drive the pool.
func NewPool(ctx *kernel.Context, n int) *Pool {
	p := &Pool{threads: make([]*Thread, n)}
	for i := range p.threads {
		p.threads[i] = &Thread{id: i, proc: ctx.Process()}
	}
	ctx.Process().SetOnKill(p.KillAll)
	return p
}

// Size returns the number of threads in the pool.
func (p *Pool) Size() int { return len(p.threads) }

// Thread returns worker i.
func (p *Pool) Thread(i int) *Thread { return p.threads[i] }

// Idle returns the lowest-numbered idle thread, or nil if all are busy.
func (p *Pool) Idle() *Thread {
	for _, t := range p.threads {
		if !t.busy {
			return t
		}
	}
	return nil
}

// BusyCount reports how many threads are currently busy.
func (p *Pool) BusyCount() int {
	n := 0
	for _, t := range p.threads {
		if t.busy {
			n++
		}
	}
	return n
}

// Start runs job on thread t until it blocks or completes. It reports
// whether the thread is still busy (blocked awaiting Resume). A panic
// inside the job re-panics here, in the server's main loop.
func (t *Thread) Start(job func(t *Thread)) (blocked bool) {
	if t.busy {
		panic("cothread: Start on busy thread")
	}
	t.busy = true
	t.job = job
	if t.next == nil {
		t.next, t.stop = iter.Pull(t.run)
		t.step, t.relay = t.stepWorker, t.relayKernelYield
	}
	return t.wait()
}

// run is the worker coroutine's own frame: one job per turn of the loop,
// parked idle in between. A false yield is KillAll's stop; a kill can
// also find the coroutine before its first switch in (a refused Start).
func (t *Thread) run(yield func(yieldKind) bool) {
	t.yield = yield
	for !t.kill {
		kind := t.runJob()
		if t.kill || !yield(kind) {
			return
		}
	}
}

// runJob executes the pending job with panic trapping. While the thread
// is being killed every panic is the unwinding (the job's deferred
// kernel calls re-raise the kernel's own kill signal, not killedThread).
func (t *Thread) runJob() (kind yieldKind) {
	defer func() {
		if r := recover(); r != nil && !t.kill {
			t.panicVal = r
			kind = yieldPanicked
		}
	}()
	job := t.job
	t.job = nil
	job(t)
	return yieldDone
}

// Resume delivers reply to a blocked thread and runs it until it blocks
// again or completes. It reports whether the thread is still busy.
func (t *Thread) Resume(reply kernel.Message) (blocked bool) {
	if !t.busy {
		panic("cothread: Resume on idle thread")
	}
	t.reply = reply
	return t.wait()
}

// wait switches into the worker until it blocks or completes — suspending
// the process on its behalf as often as it asks — and updates
// bookkeeping. A thread panic re-panics in the caller (the server main
// loop).
func (t *Thread) wait() (blocked bool) {
	t.proc.RunNested(t.step, t.relay)
	if t.out == yieldBlocked {
		return true
	}
	t.busy = false
	if t.out == yieldPanicked {
		// Propagate the crash into the server: the whole component
		// fail-stops (a thread crash is a component crash).
		r := t.panicVal
		t.panicVal = nil
		panic(r)
	}
	return false
}

// stepWorker switches into the worker and reports whether it came back
// asking for the process to be suspended, which relayKernelYield — what a
// kernel call inside the job calls to suspend — makes it do.
func (t *Thread) stepWorker() (suspend bool) {
	t.out, _ = t.next()
	return t.out == yieldKernel
}

func (t *Thread) relayKernelYield() { t.park(yieldKernel) }

// park switches from the worker back to the main loop and returns when
// the main loop switches in again. A kill delivered meanwhile unwinds the
// job from here, and so does parking again while unwinding.
func (t *Thread) park(kind yieldKind) {
	if !t.kill {
		t.yield(kind)
	}
	if t.kill {
		panic(killedThread{})
	}
}

// Block yields from inside a job until the main loop resumes the thread
// with a reply message. It must only be called from within the job.
func (t *Thread) Block() kernel.Message {
	t.park(yieldBlocked)
	reply := t.reply
	t.reply = kernel.Message{}
	return reply
}

// KillAll unwinds every thread parked mid-job and ends every worker
// coroutine, so none outlives the component. It is the owning process's
// kill hook and runs after the kernel has latched the kill on the
// process, so a job's deferred kernel calls re-raise instead of suspending.
func (p *Pool) KillAll() {
	for _, t := range p.threads {
		if t.next == nil {
			continue
		}
		t.kill = true
		if t.busy {
			t.busy = false
			t.next() // park raises the kill; run returns when the job has unwound
		} else {
			t.stop()
		}
		t.next, t.stop, t.kill = nil, nil, false
	}
}
