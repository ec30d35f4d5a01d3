package core

// This file is the recovery-framework half of the warm-fork plane. An
// OSImage freezes one booted machine at the kernel's quiescence barrier:
// the kernel MachineImage plus, per component, a fork-faithful store
// clone, the recovery-window statistics, and any transient (non-store)
// component state. The image is immutable and may be forked from
// concurrently; each fork deep-copies everything it mutates.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Forkable is implemented by components carrying transient state
// outside their memlog store that must survive a warm fork (e.g. the
// Recovery Server's heartbeat bookkeeping). ForkSnapshot returns a deep
// copy of that state; ApplyForkSnapshot installs a copy of it into a
// freshly built instance. The snapshot value is shared across forks and
// must be treated as read-only by ApplyForkSnapshot.
type Forkable interface {
	ForkSnapshot() any
	ApplyForkSnapshot(snap any)
}

// SlotImage is the captured state of one component.
type SlotImage struct {
	EP            kernel.Endpoint
	Store         *memlog.Store
	Stats         seep.Stats
	CloneResident int
	// Transient is the component's Forkable snapshot (nil when the
	// component has none). On disk it goes through the coder boot keeps
	// for the endpoint (boot.TransientCoder).
	Transient any
}

// OSImage is a deep snapshot of one booted machine at the quiescence
// barrier, ready to be forked into independent runnable machines. The
// fields are exported for the on-disk format (internal/image), which
// reads them to write a file and fills them to read one; everything else
// treats an image as opaque and read-only.
type OSImage struct {
	Machine *kernel.MachineImage
	// Slots holds the components in endpoint order (the frame order of
	// the on-disk format).
	Slots []SlotImage
}

// slot returns the captured component at ep, or nil.
func (img *OSImage) slot(ep kernel.Endpoint) *SlotImage {
	for i := range img.Slots {
		if img.Slots[i].EP == ep {
			return &img.Slots[i]
		}
	}
	return nil
}

// SizeBytes estimates the retained size of the image, as part of
// boot.Snapshot.SizeBytes: per-component store bytes plus the kernel
// image estimate.
func (img *OSImage) SizeBytes() int64 {
	n := img.Machine.SizeBytes()
	for _, si := range img.Slots {
		n += int64(si.Store.PeekBaseBytes()) + 512
	}
	return n
}

// errAfterRecovery refuses a machine that recovered or quarantined a
// component before it parked.
var errAfterRecovery = errors.New("core: capture after recoveries or quarantines")

// barrierRefusal is core's share of the quiescence predicate for a
// machine parked at a barrier (the kernel's is Kernel.BarrierQuiescent):
// nil when no component is quarantined, inside a recovery window,
// mid-request, holding undo records or busy, otherwise the first reason
// one is. Undo records are refused as the on-disk image refuses them: a
// capture forks the stores, and a fork never carries a log.
func (o *OS) barrierRefusal() error {
	if o.Quarantines != 0 {
		return errAfterRecovery
	}
	for _, ep := range o.order {
		s := o.slots[ep]
		if s.window.Open() || s.inRequest {
			return fmt.Errorf("core: component %s mid-request at the barrier", s.name)
		}
		if n := s.store.LogLen(); n > 0 {
			return fmt.Errorf("core: component %s holds %d undo records at the barrier", s.name, n)
		}
		if br, ok := s.comp.(busyReporter); ok && br.Busy() {
			return fmt.Errorf("core: component %s busy at the barrier", s.name)
		}
	}
	return nil
}

// ElideQuiescent reports whether the machine, parked at a quiescence
// barrier, is clean enough for its fingerprint to decide elision: both
// layers are quiescent. Completed recoveries are fine — a recovered
// machine is exactly what elision fingerprints; CaptureImage's
// Recoveries refusal does NOT apply here.
func (o *OS) ElideQuiescent() bool {
	return o.k.BarrierQuiescent() && o.barrierRefusal() == nil
}

// CaptureImage snapshots a machine parked by RunToBarrier (via
// Kernel().RunToBarrier). It fails when the machine is not at a clean
// quiescent point — any recovery or quarantine happened, a window is
// open, a component is mid-request or holds undo records — in which case
// the caller falls back to cold boots. The source machine is left
// intact; shut it down with Shutdown afterwards.
func (o *OS) CaptureImage() (*OSImage, error) {
	if o.Recoveries != 0 {
		return nil, errAfterRecovery
	}
	if err := o.barrierRefusal(); err != nil {
		return nil, err
	}
	machine, err := o.k.CaptureImage()
	if err != nil {
		return nil, err
	}
	img := &OSImage{Machine: machine, Slots: make([]SlotImage, 0, len(o.order))}
	for _, ep := range o.order {
		s := o.slots[ep]
		si := SlotImage{
			EP:            ep,
			Store:         s.store.Capture(),
			Stats:         s.window.Stats(),
			CloneResident: s.cloneResident,
		}
		if f, ok := s.comp.(Forkable); ok {
			si.Transient = f.ForkSnapshot()
		}
		img.Slots = append(img.Slots, si)
	}
	sort.Slice(img.Slots, func(i, j int) bool { return img.Slots[i].EP < img.Slots[j].EP })
	return img, nil
}

// AddForkedComponent registers the component at ep rebuilt from the
// image instead of from scratch: its store is fork-cloned from the
// captured one (the factory then rediscovers the existing containers,
// exactly as it does over a recovery clone), its window statistics are
// restored, its transient state reapplied, and its pre-loop
// initialization skipped — that code already ran in the captured
// machine, and its effects (pending alarms, store contents) arrive via
// the image.
func (o *OS) AddForkedComponent(ep kernel.Endpoint, factory Factory, img *OSImage) error {
	si := img.slot(ep)
	if si == nil {
		return fmt.Errorf("core: image has no component at endpoint %d", ep)
	}
	policy := o.cfg.policyFor(ep)
	store := si.Store.ForkClone()
	store.SetCounters(o.k.Counters())
	comp := factory(store)
	// A store fork-cloned from a decoded on-disk image is materialized
	// by the factory's container registrations; surface any type
	// mismatch or leftover payload as a fork failure (the campaign
	// driver degrades to cold boots). No-op for in-memory images.
	if err := store.FinishDecode(); err != nil {
		return err
	}
	win := seep.NewWindow(policy, store)
	win.RestoreStats(si.Stats)
	o.bindCostSink(store, win)
	if f, ok := comp.(Forkable); ok && si.Transient != nil {
		f.ApplyForkSnapshot(si.Transient)
	}
	s := &slot{
		ep:            ep,
		name:          comp.Name(),
		factory:       factory,
		policy:        policy,
		comp:          comp,
		store:         store,
		window:        win,
		cloneResident: si.CloneResident,
	}
	o.slots[ep] = s
	o.order = append(o.order, ep)
	o.k.AddServer(ep, s.name, o.serverBody(s, true), s.config())
	return nil
}

// StateFingerprint hashes the machine's semantic state for the elision
// plane: the kernel fingerprint plus every component store except the
// Recovery Server's. RS state is statistics by construction — crash
// and recovery tallies, ping bookkeeping — which necessarily differ
// between a recovered machine and the fault-free pathfinder while
// changing no future behavior of the workload, so it is excluded the
// same way counters are. Window statistics and checkpoint bookkeeping
// are likewise out: only container contents are hashed.
func (o *OS) StateFingerprint(skip kernel.MsgSkip) (uint64, error) {
	h := o.k.StateFingerprint(skip)
	for _, ep := range o.order {
		if ep == kernel.EpRS {
			continue
		}
		fp, err := o.slots[ep].store.Fingerprint()
		if err != nil {
			return 0, err
		}
		h = fpFold(h, uint64(ep), fp)
	}
	return h, nil
}

// TransientDigest hashes every component's Forkable transient state —
// what a component keeps outside its store and therefore outside
// StateFingerprint: the Recovery Server's outstanding-ping counts and
// quarantine set, the VFS tag cursor. Each state goes through the coder
// coderOf names for its endpoint — the field list on-disk images store
// it with (sorted maps) — hashing, so equal digests mean equal transient
// state. The wedge certificate compares it between idle points of one
// run.
func (o *OS) TransientDigest(coderOf func(kernel.Endpoint) func(*wire.Codec, *any)) (uint64, error) {
	c := wire.Hashing(sim.NewHash())
	// One slot for the walk: the coder is a function value, so what it is
	// handed lives on the heap.
	var snap any
	for _, ep := range o.order {
		f, ok := o.slots[ep].comp.(Forkable)
		if !ok {
			continue
		}
		snap = f.ForkSnapshot()
		wire.Int(&c, &ep)
		coderOf(ep)(&c, &snap)
	}
	return c.Sum(), c.Err()
}

// fpFold chains one component's store hash into the machine hash.
func fpFold(h, ep, fp uint64) uint64 {
	return sim.Mix64(h ^ (fp + ep*0x9E3779B97F4A7C15))
}
