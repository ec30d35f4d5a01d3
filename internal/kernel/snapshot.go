package kernel

// This file is the kernel half of the warm-fork plane: capturing a
// machine parked at a quiescence barrier into a MachineImage, and
// stamping that image onto a freshly constructed machine so it resumes
// bit-identically to the captured one.
//
// A body's position lives on its coroutine's stack, which cannot be
// cloned, so forking hinges on a quiescent point where every process
// position is reconstructible by running a body afresh: every server
// parked at the top of its Receive loop, and
// exactly one process — the root workload — parked at an armed
// Context.Barrier. The campaign driver boots a machine with
// RunToBarrier, captures it, tears it down, and then builds any number
// of independent machines through the ordinary boot path, applying the
// image to each before Run.
//
// The image deep-copies everything mutable (inboxes, alarms, counters,
// transport maps); message Aux payloads are shared — they carry process
// bodies and argv slices that receivers only read.

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Barrier parks the calling process at the warm-fork quiescence point
// when the machine was armed by RunToBarrier. On every ordinary machine
// it is a complete no-op: no cycles, no counters, no yield — so code
// calling it behaves identically under cold boot.
func (c *Context) Barrier() {
	c.p.checkKilled()
	k := c.k
	if !k.barrierArmed {
		return
	}
	k.barrierArmed = false
	k.barrierHit = true
	// Remember the parked process so the next Run or RunToBarrier can
	// resume it without a counted dispatch — on a cold machine Barrier is
	// a no-op, so the park/resume pair must not touch cycles, counters or
	// the round-robin cursor.
	k.forkResume = c.p
	// Suspend to the loop, not to a successor, so RunToBarrier regains
	// control with this process still runnable; the process stays inside
	// this dispatch, exactly like a cold machine whose root is mid-body.
	c.p.suspend(nil)
}

// RunToBarrier drives the machine like Run until the root process
// reaches an armed Context.Barrier, and reports whether it did. The
// machine is left parked — no process running, the root runnable at the
// barrier — ready for CaptureImage. Unlike Run it does NOT unwind the
// process bodies; call Teardown when done with the machine. A false
// return means the run finished (or hit the limit) before any Barrier
// call: the workload is not barrier-instrumented, so the caller must
// fall back to cold boots.
//
// Calling it again on a machine already parked at a barrier resumes the
// parked process uncounted — no dispatch, no cycle, no round-robin
// advance — and walks to the next barrier, so a pathfinder can ladder
// through every barrier of a run while staying bit-identical to a cold
// machine (where each Barrier is a no-op).
func (k *Kernel) RunToBarrier(cycleLimit sim.Cycles) bool {
	k.barrierHit = false
	k.barrierArmed = true
	k.runLoop(cycleLimit)
	k.barrierArmed = false
	return k.barrierHit && !k.done
}

// Each layer of kernel state keeps the scalars an image carries in one
// plain struct embedded in both the live object and its image, so capture
// and apply copy them by assignment and a new scalar is declared once:
// machineRegs (Kernel / MachineImage), procRegs (procLive / liveImage)
// and planeState (ipcPlane / MachineImage.ipc). What holds references —
// inboxes, the alarm heap, counters, the transport's pair table — is
// copied explicitly beside the assignment.

// machineRegs are the machine-wide scalars.
type machineRegs struct {
	rrNext     int
	nextUserEp Endpoint
	rootEp     Endpoint
	alarmSeq   uint64
	// ipcNextDue is the earliest pending IPC event (delayed delivery, ARQ
	// retransmission or SendRec deadline), ipcNone without one, so the
	// hot paths pay a single compare.
	ipcNextDue sim.Cycles
}

// procRegs are the per-process scalars.
type procRegs struct {
	quantumUsed sim.Cycles
	// In-flight request bookkeeping for reconciliation.
	curSender     Endpoint
	curNeedsReply bool
}

// procImage is the captured kernel-level state of one process: its
// endpoint and name, and where its record is. Dead entries (exited,
// reaped test children that still occupy a slot in the scheduling order)
// carry only their endpoint and name; ApplyImage recreates them as
// body-less placeholders so the fork's scheduler geometry matches the
// captured machine exactly. A mid-suite image holds far more dead
// entries than live ones, and a campaign holds an image of every rung:
// an entry holds no pointer, so that consecutive captures of one machine
// share the entries they agree on (Kernel.imageProcs).
type procImage struct {
	ep   Endpoint
	name string
	// live is 1 + the index of the entry's record in MachineImage.lives,
	// 0 for a dead entry.
	live int32
}

// liveImage is the rest of a process's entry: what a dead one, which
// stands for state stateDead, an empty inbox and zero registers, leaves
// out. A decoded entry has one when it holds anything else (format v1
// codes every entry in full).
type liveImage struct {
	state procState
	inbox []Message
	procRegs
}

// deadImage is the record a dead entry stands for. Only ever read.
var deadImage = liveImage{state: stateDead}

// record is pi's full record.
func (img *MachineImage) record(pi *procImage) *liveImage {
	if pi.live == 0 {
		return &deadImage
	}
	return &img.lives[pi.live-1]
}

// MachineImage is a deep snapshot of one machine's kernel state at the
// quiescence barrier. It is immutable once captured and may be applied
// to any number of fresh machines concurrently.
type MachineImage struct {
	machineRegs
	now      sim.Cycles
	alarms   []alarm
	counters *sim.Counters
	procs    []procImage
	lives    []liveImage
	ipc      *planeState
}

// barrierRefusal is the kernel's one quiescence predicate for a machine
// parked by RunToBarrier: nil when every process position is
// reconstructible by a fresh body and no fault or transport state
// is in flight, otherwise the first reason it is not. CaptureImage
// refuses on it and BarrierQuiescent reports it as a bool.
func (k *Kernel) barrierRefusal() error {
	if !k.barrierHit {
		return fmt.Errorf("kernel: capture without a barrier hit")
	}
	if k.done || k.inRecovery {
		return fmt.Errorf("kernel: capture on a finished or recovering machine")
	}
	if len(k.pendingCrashes) > 0 || len(k.quarantined) > 0 ||
		len(k.recoveryPanics) > 0 || len(k.replyErrnoOverride) > 0 {
		return fmt.Errorf("kernel: capture with pending crash/quarantine state")
	}
	for _, ep := range k.order {
		p := k.procs.get(ep)
		if p == nil {
			return fmt.Errorf("kernel: capture with missing process at endpoint %d", ep)
		}
		if !p.Alive() {
			// Exited test children stay in the scheduling order forever
			// (endpoints are never reused): a mid-suite barrier is
			// quiescent even with reaped children in the table, as long as
			// nothing crashed.
			if p.state != stateDead || p.isServer || ep == k.rootEp {
				return fmt.Errorf("kernel: capture with crashed or dead process %s(%d)", p.name, ep)
			}
			continue
		}
		switch {
		case ep == k.rootEp:
			if p.state != stateRunnable {
				return fmt.Errorf("kernel: root process not parked runnable at the barrier")
			}
		case p.state != stateReceiving:
			return fmt.Errorf("kernel: process %s(%d) not parked in Receive (state %d)", p.name, ep, p.state)
		}
		if p.reply != nil || p.sendDeadline != 0 {
			return fmt.Errorf("kernel: process %s(%d) holds in-flight send state", p.name, ep)
		}
	}
	if k.ipc != nil && (len(k.ipc.held) > 0 || len(k.ipc.armed) > 0) {
		return fmt.Errorf("kernel: capture with in-flight transport events")
	}
	return nil
}

// BarrierQuiescent reports whether the machine, parked at a barrier by
// RunToBarrier, is at the quiescent point CaptureImage demands. Tail
// elision asks it of a recovered machine: completed recoveries leave no
// kernel state behind, so a machine that recovered cleanly is exactly
// as quiescent as one that never crashed.
func (k *Kernel) BarrierQuiescent() bool { return k.barrierRefusal() == nil }

// CaptureImage snapshots a machine parked by RunToBarrier. It returns
// an error when the machine is not at a reconstructible quiescent point
// — any process blocked mid-SendRec, a pending crash or quarantine, an
// in-flight transport event — in which case the caller must fall back
// to cold boots. The source machine is left untouched (tear it down
// separately).
func (k *Kernel) CaptureImage() (*MachineImage, error) {
	if err := k.barrierRefusal(); err != nil {
		return nil, err
	}
	img := &MachineImage{
		machineRegs: k.machineRegs,
		now:         k.clock.Now(),
		alarms:      append([]alarm(nil), k.alarms...),
		counters:    k.counters.Clone(),
	}
	live := 0
	for _, ep := range k.order {
		if k.procs.get(ep).Alive() {
			live++
		}
	}
	img.lives = make([]liveImage, 0, live)
	// The entries go into the last capture's wherever they agree with
	// them, and after them in place: no image sees past the end of
	// imageProcs. From the first entry that differs, they go into a copy.
	prev, shared := k.imageProcs, true
	var procs []procImage
	for i, ep := range k.order {
		p := k.procs.get(ep)
		e := procImage{ep: ep, name: p.name}
		// A reaped child is captured as a placeholder.
		if p.Alive() {
			li := liveImage{state: p.state, procRegs: p.procRegs}
			for _, m := range p.inbox[p.inboxHead:] {
				li.inbox = append(li.inbox, m.ownBytes())
			}
			img.lives = append(img.lives, li)
			e.live = int32(len(img.lives))
		}
		if shared && i < len(prev) && prev[i] == e {
			continue
		}
		if shared {
			procs, shared = prev[:i], false
			if i < len(prev) {
				procs = slices.Clip(procs)
			}
		}
		procs = append(procs, e)
	}
	if shared {
		procs = prev
	} else {
		k.imageProcs = procs
	}
	img.procs = procs[:len(k.order):len(k.order)]
	if k.ipc != nil {
		ipc := k.ipc.planeState.clone()
		img.ipc = &ipc
	}
	return img, nil
}

// ownBytes returns m with a private copy of its Bytes payload. A
// receiver never writes it (Message), but its sender may write its buffer
// after the capture, and the image must hold the bytes as they were sent.
func (m Message) ownBytes() Message {
	if m.Bytes != nil {
		m.Bytes = append([]byte(nil), m.Bytes...)
	}
	return m
}

// ApplyImage stamps a captured image onto this machine, which must be
// freshly constructed through the same boot path (same endpoints, same
// process order, clock at zero). After it returns, the next Run resumes
// the root process exactly where the captured machine parked it.
func (k *Kernel) ApplyImage(img *MachineImage) error {
	if k.clock.Now() != 0 {
		return fmt.Errorf("kernel: ApplyImage on a machine that already ran")
	}
	if img.rootEp != k.rootEp {
		return fmt.Errorf("kernel: image root endpoint %d != machine root %d", img.rootEp, k.rootEp)
	}
	if (img.ipc != nil) != (k.ipc != nil) {
		return fmt.Errorf("kernel: image has an IPC plane: %v, machine: %v", img.ipc != nil, k.ipc != nil)
	}
	// The image may come from a file: everything the scheduler will index
	// with is checked before anything is stamped.
	if img.rrNext < 0 || img.rrNext >= len(img.procs) {
		return fmt.Errorf("kernel: image round-robin cursor %d outside its %d processes", img.rrNext, len(img.procs))
	}
	// User endpoints are handed out densely from EpUserBase and a process
	// never leaves the table, so the image's user entries must be exactly
	// EpUserBase … nextUserEp-1: the allocator, which sizes the table at a
	// fork's next spawn, is then bounded by the image's own length.
	dead, users := 0, 0
	for i, pi := range img.procs {
		if i > 0 && pi.ep <= img.procs[i-1].ep {
			return fmt.Errorf("kernel: image processes not in endpoint order at %d", pi.ep)
		}
		if pi.ep >= EpUserBase {
			if pi.ep >= img.nextUserEp {
				return fmt.Errorf("kernel: image process at endpoint %d outside the user endpoints %d..%d handed out", pi.ep, EpUserBase, img.nextUserEp-1)
			}
			users++
		}
		rec := img.record(&pi)
		// barrierRefusal lets three states into an image: dead, the root
		// runnable at its barrier, everything else parked in Receive.
		parked := stateReceiving
		if pi.ep == img.rootEp {
			parked = stateRunnable
		}
		switch {
		case rec.state == stateDead:
			// A dead process is a reaped user child.
			if pi.ep < EpUserBase {
				return fmt.Errorf("kernel: image dead process at endpoint %d outside the user endpoints", pi.ep)
			}
			if k.procs.get(pi.ep) != nil {
				return fmt.Errorf("kernel: image dead process at endpoint %d collides with a live one", pi.ep)
			}
			dead++
		case k.procs.get(pi.ep) == nil:
			return fmt.Errorf("kernel: image process at endpoint %d missing from machine", pi.ep)
		case rec.state != parked:
			return fmt.Errorf("kernel: image process %s(%d) in state %d, not parked at a barrier", pi.name, pi.ep, rec.state)
		}
	}
	if handed := int(img.nextUserEp - EpUserBase); users != handed {
		return fmt.Errorf("kernel: image has %d user processes, its endpoint allocator handed out %d", users, handed)
	}
	if live := len(img.procs) - dead; live != len(k.order) {
		return fmt.Errorf("kernel: image has %d live processes, machine has %d", live, len(k.order))
	}
	k.installDeadPlaceholders(img, dead)
	for _, pi := range img.procs {
		rec := img.record(&pi)
		if rec.state == stateDead {
			continue
		}
		p := k.procs.get(pi.ep)
		p.state = rec.state
		p.procRegs = rec.procRegs
		for _, m := range rec.inbox {
			m = m.ownBytes()
			p.pushMsg(&m)
		}
		k.markSched(p)
	}
	k.machineRegs = img.machineRegs
	k.clock.Advance(img.now)
	k.counters.CopyFrom(img.counters)
	k.alarms = append([]alarm(nil), img.alarms...)
	if img.ipc != nil {
		// The fork keeps its own freshly seeded fault RNG; only the
		// reliability-layer bookkeeping carries over.
		k.ipc.planeState = img.ipc.clone()
	}
	k.forkResume = k.procs.get(img.rootEp)
	return nil
}

// installDeadPlaceholders gives every dead process of an image (its
// procs sorted by endpoint as captured; dead of them are dead) a body-less
// placeholder, so a forked machine's scheduler geometry — order indices,
// ready-set bit positions, round-robin cursor — matches the captured
// machine, whose process table still holds every reaped test child. The
// table grows once, to the image's highest endpoint; the placeholders
// come from the arena's slab and are merged into k.order in one pass,
// from the back and in place, so nothing is moved before it is read;
// each live process keeps its readiness bit at its new position and a
// placeholder's is clear, exactly what inserting them one at a time
// (insertIntoOrder) arrives at.
func (k *Kernel) installDeadPlaceholders(img *MachineImage, dead int) {
	if dead == 0 {
		return
	}
	procs := img.procs
	k.procs.grow(procs[len(procs)-1].ep)
	slab := slices.Grow(k.arena.dead[:0], dead)[:dead]
	k.arena.dead = slab
	live := len(k.order)
	order := slices.Grow(k.order, dead)[:live+dead]
	k.ready.ensure(len(order))
	place := func(p *Process, at int, isReady bool) {
		p.orderIdx = at
		order[at] = p.ep
		if isReady {
			k.ready.set(at)
		} else {
			k.ready.clear(at)
		}
	}
	// order[:live] are the live processes not yet moved, and at is the
	// position the next one from the back goes to.
	at := len(order)
	for i := len(procs) - 1; i >= 0; i-- {
		if img.record(&procs[i]).state != stateDead {
			continue
		}
		ep := procs[i].ep
		for live > 0 && order[live-1] > ep {
			live--
			at--
			p := k.procs.get(order[live])
			place(p, at, k.ready.get(p.orderIdx))
		}
		dead--
		at--
		slab[dead] = Process{k: k, ep: ep, name: procs[i].name, state: stateDead}
		p := &slab[dead]
		k.procs[ep] = p
		place(p, at, false)
	}
	k.order = order
}

// SizeBytes estimates the retained size of the image: message payloads
// plus fixed per-structure overheads. It is a heuristic, reported as part
// of boot.Snapshot.SizeBytes, not an exact accounting.
func (img *MachineImage) SizeBytes() int64 {
	const (
		procOverhead  = 256
		msgOverhead   = 96
		alarmOverhead = 48
	)
	n := int64(4096)
	n += int64(len(img.alarms)) * alarmOverhead
	for i := range img.procs {
		n += procOverhead
		for _, m := range img.record(&img.procs[i]).inbox {
			n += msgOverhead + int64(len(m.Bytes)) + int64(len(m.Str)) + int64(len(m.Str2))
		}
	}
	if img.ipc != nil {
		for i, size := range [len(pairFields)]int64{32, 32, 32, 160} {
			img.ipc.pairs.holding(pairFields[i], func(Endpoint, Endpoint, *pairState) { n += size })
		}
	}
	return n
}
