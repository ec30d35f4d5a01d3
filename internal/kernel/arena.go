package kernel

// Arena is the host scaffolding of a machine that no simulated byte
// depends on, kept for the next machine once one is finished: idle
// coroutines, the process table's, the scheduling order's and the ready
// bitmap's backing arrays, and the slab of dead-process placeholders. A
// campaign worker forks thousands of short-lived machines one after
// another; built on one arena, each takes what the one before it set up
// instead of allocating it again.
//
// An arena serves one live machine at a time (NewIn panics otherwise).
// The machine takes the arrays when it is built and gives them back,
// with the coroutines it ended up holding, when Release says it is
// finished for good. New builds a machine on a private arena of its own,
// which nothing else sees: that machine stops its coroutines at teardown
// and needs no Release. Whoever hands a shared arena to machines stops
// its coroutines with Close once the last of them is released.
//
// Only host memory is reused: a machine grows every array from length
// zero and writes every element it reads, so what it computes is what it
// would compute on a fresh arena. Process records are not kept: a
// record's Context escapes into server closures, store cost sinks and
// user-program handles that can outlive the machine.
type Arena struct {
	// owner is the live machine the arena serves; nil between machines.
	owner *Kernel
	// private marks the arena New made for one machine alone.
	private bool
	// coros are the coroutines the last machine released, with their k
	// cleared; takeCoro binds one when a machine's own free list is empty.
	coros []*coro
	// procs, order and ready are the last machine's arrays, zero length
	// between machines, and dead its placeholder slab, cleared.
	procs procTable
	order []Endpoint
	ready []uint64
	dead  []Process
}

// Release gives the machine's scaffolding back to its arena. Call it once
// the machine is finished for good: torn down (Run returned, or Teardown)
// and read for the last time. The machine drops its process table and
// scheduling order, so a late read fails instead of finding the next
// machine's. The arena keeps the coroutines this machine held — as many
// as it ever had bodies running at once — and stops any it did not need.
func (k *Kernel) Release() {
	a := k.arena
	if a.owner != k || !k.done {
		panic("kernel: Release of a machine that is not finished or not its arena's")
	}
	for _, c := range a.coros {
		c.stop()
	}
	for _, c := range k.idleCoros {
		c.k = nil
	}
	a.coros, k.idleCoros = k.idleCoros, nil
	clear(k.procs)
	clear(a.dead)
	a.procs, a.order, a.ready, a.dead = k.procs[:0], k.order[:0], k.ready.words[:0], a.dead[:0]
	k.procs, k.order, k.ready = nil, nil, readySet{}
	a.owner = nil
}

// Close stops the arena's idle coroutines. The arena must serve no live
// machine; it may serve new ones afterwards.
func (a *Arena) Close() {
	if a.owner != nil {
		panic("kernel: Close of an arena that serves a live machine")
	}
	for _, c := range a.coros {
		c.stop()
	}
	a.coros = nil
}
