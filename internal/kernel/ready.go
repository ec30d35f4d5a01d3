package kernel

import "math/bits"

// This file implements the O(1) ready queue of the scheduler: a
// readiness bitmap indexed by scheduling-order position. The bit for a
// process is maintained equal to schedulable() at every transition
// (message arrival, reply delivery, block, death), so the round-robin
// pick is a find-first-set from rrNext instead of a scan over the
// whole process table: lowest order index at or after rrNext, wrapping.
//
// This is the only scheduler. The O(n) scan it replaced served as an
// equivalence oracle for ten PRs and is gone; the pick order is pinned
// without a second implementation by ready_test.go
// (TestReadySetNextFromMatchesReference checks nextFrom against a
// linear reference over random bitmaps, TestManyProcessScheduling the
// round-robin order on a live kernel).

// readySet is a bitmap over scheduling-order positions.
type readySet struct {
	words []uint64
}

// ensure grows the bitmap to hold at least n bits.
func (r *readySet) ensure(n int) {
	need := (n + 63) >> 6
	for len(r.words) < need {
		r.words = append(r.words, 0)
	}
}

// set marks position i ready.
func (r *readySet) set(i int) { r.words[i>>6] |= 1 << (uint(i) & 63) }

// get reports whether position i is ready.
func (r *readySet) get(i int) bool { return r.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// clear marks position i not ready.
func (r *readySet) clear(i int) { r.words[i>>6] &^= 1 << (uint(i) & 63) }

// insert shifts every bit at position >= i up by one, opening a zero
// bit at i (mirrors the slice insertion into k.order). Called on
// process creation only — never on the dispatch path.
func (r *readySet) insert(i, n int) {
	r.ensure(n)
	w := i >> 6
	carry := r.words[w] >> 63
	low := r.words[w] & (1<<(uint(i)&63) - 1)
	high := r.words[w] &^ (1<<(uint(i)&63) - 1)
	r.words[w] = low | high<<1
	for w++; w < len(r.words); w++ {
		next := r.words[w] >> 63
		r.words[w] = r.words[w]<<1 | carry
		carry = next
	}
}

// nextFrom returns the first ready position in [start, n) or, wrapping,
// in [0, start); -1 if no position is ready. Bits at or above n are
// never set.
func (r *readySet) nextFrom(start, n int) int {
	if n == 0 || len(r.words) == 0 {
		return -1
	}
	nw := (n + 63) >> 6
	w := start >> 6
	if word := r.words[w] &^ (1<<(uint(start)&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	for w++; w < nw; w++ {
		if r.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(r.words[w])
		}
	}
	// Wrap: [0, start).
	last := start >> 6
	for w = 0; w < last; w++ {
		if r.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(r.words[w])
		}
	}
	if word := r.words[last] & (1<<(uint(start)&63) - 1); word != 0 {
		return last<<6 + bits.TrailingZeros64(word)
	}
	return -1
}

// markSched re-derives the readiness bit of p from its state. Every
// mutation of a process's state, inbox or pending reply runs through
// here, so the bitmap invariant bit==schedulable() holds whenever the
// scheduler looks at it. A user process coming through here schedulable
// also bumps the user-wake stamp (see WedgeStamp): servers keep their
// state in fingerprinted stores, but a user program's position lives on
// its coroutine's stack, so "no user process was runnable since" is the
// only proof that nothing changed there.
func (k *Kernel) markSched(p *Process) {
	if p.schedulable() {
		k.ready.set(p.orderIdx)
		if !p.isServer {
			k.userWakes++
		}
	} else {
		k.ready.clear(p.orderIdx)
	}
}

// pickRunnable selects the next schedulable process round-robin:
// lowest order position at or after rrNext, wrapping — O(1) via the
// readiness bitmap.
func (k *Kernel) pickRunnable() *Process {
	n := len(k.order)
	if n == 0 {
		return nil
	}
	idx := k.ready.nextFrom(k.rrNext, n)
	if idx < 0 {
		return nil
	}
	k.rrNext = (idx + 1) % n
	return k.procs[k.order[idx]]
}

// fusedNext returns the process a full trip through the kernel loop
// would dispatch next, provided every other branch of that loop is a
// no-op right now: the run is not done, no queued crash or alarm is
// due, and the cycle limit has not been reached. When it returns
// non-nil, switching to that process without going round the loop is
// bit-identical to the round trip — same pick, same rrNext, same
// counters; when it is the caller itself, no switch happens at all.
// yieldToKernel asks it on every suspension and names the answer as its
// successor; nil sends control back to the loop, which then runs the
// branch that was due.
func (k *Kernel) fusedNext() *Process {
	if k.done || k.clock.Now() > k.cycleLimit {
		return nil
	}
	if len(k.pendingCrashes) > 0 {
		now := k.clock.Now()
		for _, qc := range k.pendingCrashes {
			if qc.due <= now {
				return nil
			}
		}
	}
	if len(k.alarms) > 0 && k.alarms[0].deadline <= k.clock.Now() {
		return nil
	}
	if k.clock.Now() >= k.ipcNextDue {
		// A delayed IPC delivery, ARQ retransmission or SendRec
		// deadline is due: take the full loop. ipcNextDue is the max
		// sentinel whenever no IPC event is pending (plane disabled),
		// so this is a single always-false compare on the fast path.
		return nil
	}
	return k.pickRunnable()
}
