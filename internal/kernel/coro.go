//go:build go1.23

// The build line is for go vet: go.mod stays at go 1.22 (bench/go.mod
// builds this module -mod=readonly), iter is a go1.23 package, and the
// line raises this file's version so the stdversion check is clean. Under
// an older toolchain the package does not compile: there is no fallback.

package kernel

import (
	"fmt"
	"iter"
)

// coro is a host coroutine (iter.Pull: a runtime coroswitch — no run
// queue, no wake-up, same OS thread) that runs process bodies, one after
// another. A process takes one at its first dispatch and keeps it until
// its body returns, crashes or is unwound; the coroutine then parks on
// its kernel's free list for the next first dispatch, so a machine
// creates as many as it ever has processes mid-body at once.
//
// Who resumes whom. Control moves along a chain of resumers: the kernel
// loop at the bottom, then every process that switched into its
// successor's coroutine itself and is parked inside that switch, and the
// running process on top. A process that suspends naming a successor off
// the chain switches into it and joins the chain (call); one that names
// a successor on the chain, or none, passes control down — each frame it
// reaches hands it on until it arrives at the one named, or at the kernel
// loop for nil (return). So a SendRec round trip is two switches, and a
// leaf call none: when a yield's pick is a server parked at its loop's
// Receive with one message queued, which its registered step serves
// without suspending within its quantum, the yielding process runs that
// step itself under the server's Context, on the chain as its switch
// would have left it, and then takes the pick the server's Receive would
// make (yieldToKernel, serveLeaf). The one other caller of next is reap, which resumes a parked body with its
// killed latch set to unwind it; a body reaped while on the chain is
// parked inside a switch and cannot be resumed, so it unwinds when
// control next reaches its frame and then hands on the successor it was
// given (handOff).
type coro struct {
	k *Kernel
	// p is the process whose body the next resume of an idle coroutine
	// runs (takeCoro).
	p *Process
	// handTo is the successor a reaped resumer's frame was handed, which
	// the coroutine passes on once its body has ended: enter takes it
	// from here rather than as the yielded value, which iter.Pull keeps
	// while the coroutine is idle — in an arena, past the end of the
	// machine the process belongs to.
	handTo *Process
	// yield suspends the body: control returns to whoever called next,
	// with the successor the frames below hand control on to (nil: the
	// kernel loop).
	yield func(successor *Process) bool
	next  func() (*Process, bool)
	stop  func()
}

// takeCoro binds an idle coroutine to p: the machine's own, else one its
// arena kept from the machine before, which it rebinds, and only when
// both free lists are empty a new one.
func (k *Kernel) takeCoro(p *Process) *coro {
	var c *coro
	if n := len(k.idleCoros); n > 0 {
		c, k.idleCoros = k.idleCoros[n-1], k.idleCoros[:n-1]
	} else if n := len(k.arena.coros); n > 0 {
		c, k.arena.coros = k.arena.coros[n-1], k.arena.coros[:n-1]
		c.k = k
	} else {
		c = &coro{k: k}
		c.next, c.stop = iter.Pull(c.run)
		k.corosCreated++
	}
	c.p, p.co = p, c
	return c
}

// run is the coroutine's own frame: one body per turn, runBody's recover
// outermost around each. A body that was killed releases what onKill
// holds once it has unwound. A false yield is stopIdleCoros.
func (c *coro) run(yield func(*Process) bool) {
	c.yield = yield
	for {
		p := c.p
		p.runBody()
		p.co, c.p = nil, nil
		if p.killed {
			p.releaseOnKill()
		}
		c.k.idleCoros = append(c.k.idleCoros, c)
		c.k.switches++
		if !yield(nil) {
			return
		}
	}
}

// kernelFault is a panic that came out of a coroutine switch — a bug in
// the kernel, such as resuming a frame that is on the chain, and no fault
// of the body that made the switch — or out of a leaf step that broke its
// declaration (serveLeaf). runBody re-raises it rather than trap it as
// that body's crash, so it unwinds every frame down the chain and reaches
// Run's caller, as a panic out of the kernel loop does.
type kernelFault struct{ v any }

func (f kernelFault) Error() string {
	return fmt.Sprintf("kernel fault: %v", f.v)
}

// enter switches into the coroutine and returns the successor handed down
// to the caller when control comes back to it.
func (c *coro) enter() *Process {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(kernelFault); !ok {
				r = kernelFault{r}
			}
			panic(r)
		}
	}()
	c.k.switches++
	next, _ := c.next()
	if c.handTo != nil {
		next, c.handTo = c.handTo, nil
	}
	return next
}

// handOff is the one switch loop, run by a resumer — a suspending process
// as self, or the kernel loop as nil (its counted dispatch, and the
// uncounted hand-back to a process parked at a barrier) — with the
// successor to run. It returns once control is back at self: named by a
// process further up, resumed directly after passing control down, or —
// self reaped while it waited on the chain — handed any successor, which
// it stores for its coroutine to pass on once the body has unwound.
func (k *Kernel) handOff(self, next *Process) {
	for next != self {
		if next == nil || next.onChain {
			k.switches++
			self.co.yield(next)
			return
		}
		if self != nil {
			self.onChain = true
		}
		k.running = next
		c := next.co
		if c == nil {
			c = k.takeCoro(next)
		}
		next = c.enter()
		k.running = self
		if self != nil {
			self.onChain = false
			if self.killed {
				self.co.handTo = next
				return
			}
		}
	}
}

// stopIdleCoros ends the coroutines on the free list — after killAll,
// every coroutine the machine holds. Only a machine on a private arena
// does: one on a shared arena hands them on at Release.
func (k *Kernel) stopIdleCoros() {
	for _, c := range k.idleCoros {
		c.stop()
	}
	k.idleCoros = nil
}
