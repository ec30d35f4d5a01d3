//go:build go1.23

// The build line is for go vet: go.mod stays at go 1.22 (bench/go.mod
// builds this module -mod=readonly), iter is a go1.23 package, and the
// line raises this file's version so the stdversion check is clean. Under
// an older toolchain the package does not compile: there is no fallback.

package kernel

import "iter"

// coro is a host coroutine (iter.Pull: a runtime coroswitch — no run
// queue, no wake-up, same OS thread) that runs process bodies, one after
// another. A process takes one at its first dispatch and keeps it until
// its body returns, crashes or is unwound; the coroutine then parks on
// its kernel's free list for the next first dispatch, so a machine
// creates as many as it ever has processes mid-body at once. Only the
// kernel loop runs a body forward (resume); the one other caller of next
// is reap, which resumes a body with its killed latch set to unwind it.
type coro struct {
	k *Kernel
	// p is the process whose body the next resume of an idle coroutine
	// runs (takeCoro).
	p *Process
	// yield suspends the body: control returns to whoever called next,
	// with the process the loop is to resume instead (nil: none, run the
	// loop's checks).
	yield func(successor *Process) bool
	next  func() (*Process, bool)
	stop  func()
}

// takeCoro binds an idle coroutine to p, creating one only when the free
// list is empty.
func (k *Kernel) takeCoro(p *Process) *coro {
	var c *coro
	if n := len(k.idleCoros); n > 0 {
		c, k.idleCoros = k.idleCoros[n-1], k.idleCoros[:n-1]
	} else {
		c = &coro{k: k}
		c.next, c.stop = iter.Pull(c.run)
		k.corosCreated++
	}
	c.p, p.co = p, c
	return c
}

// run is the coroutine's own frame: one body per turn, runBody's recover
// outermost around each. A false yield is stopIdleCoros.
func (c *coro) run(yield func(*Process) bool) {
	c.yield = yield
	for {
		c.p.runBody()
		c.p.co, c.p = nil, nil
		c.k.idleCoros = append(c.k.idleCoros, c)
		if !yield(nil) {
			return
		}
	}
}

// resume runs p, and then every process a suspending body names as its
// successor, until one hands control back to the kernel loop. It is the
// only place a body is switched to: the loop's counted dispatch, the
// uncounted hand-back to a process parked at a barrier, and through
// those every fused hand-off between processes.
func (k *Kernel) resume(p *Process) {
	for p != nil {
		k.running = p
		c := p.co
		if c == nil {
			c = k.takeCoro(p)
		}
		p, _ = c.next()
	}
	k.running = nil
}

// stopIdleCoros ends the coroutines on the free list — after killAll,
// every coroutine the machine created.
func (k *Kernel) stopIdleCoros() {
	for _, c := range k.idleCoros {
		c.stop()
	}
	k.idleCoros = nil
}
