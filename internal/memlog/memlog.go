// Package memlog implements OSIRIS' lightweight in-memory checkpointing
// (Vogt et al., DSN 2015) for the simulated operating system.
//
// In the original prototype an LLVM pass instruments every store
// instruction of an OS server with a call that appends (address, old
// value) to a per-component undo log. In this reproduction, server state
// lives in typed, named containers (Cell, Map, Slice) owned by a Store;
// every mutation goes through a Set-style method which plays the role of
// the instrumented store: it appends an undo record while write logging
// is enabled, and charges virtual cycles according to the active
// instrumentation mode.
//
// A checkpoint is simply the (empty) log position at the top of a
// server's request-processing loop; Rollback undoes all records in
// reverse, restoring the exact state at the checkpoint. The undo log is
// self-describing (records reference containers by name, and each
// container keeps the old values of its own stores, typed), so it can be
// transferred to a freshly cloned Store and replayed there — exactly the
// restart-then-rollback flow of the paper's Recovery Server.
package memlog

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Fixed counter slots: store instrumentation fires on every logged
// write, so these are incremented by ID rather than by name.
var (
	ctrStoresLogged = sim.RegisterCounter("memlog.stores_logged")
	ctrStoresTotal  = sim.RegisterCounter("memlog.stores_total")
)

// Instrumentation selects how stores are instrumented, mirroring the
// build modes evaluated in the paper (§VI-C, Table V).
type Instrumentation int

const (
	// Baseline performs no write logging and charges no instrumentation
	// cost. Recovery is impossible in this mode (the paper's baseline).
	Baseline Instrumentation = iota + 1
	// Unoptimized logs every store regardless of recovery-window state
	// (the paper's "without opt." column).
	Unoptimized
	// Optimized logs stores only while the recovery window is open and
	// pays only a cheap check otherwise (the paper's optimisation of
	// §IV-D, implemented there by function cloning).
	Optimized
	// FullCopy charges for checkpointing by copying the data section
	// instead of keeping an undo log: zero per-store cost, but a
	// per-request cost proportional to component state size. It exists
	// to reproduce the paper's design rationale (§IV-C): at OS request
	// frequencies a simple undo log beats full-state checkpointing. The
	// copy is a charge rule only: what a rollback restores, the store
	// keeps as host-side undo records, which cost nothing.
	FullCopy
)

// Virtual-cycle costs of the store instrumentation. A logged store pays
// the undo-log append; an unlogged store in Optimized mode pays only the
// window check on the cloned fast path.
const (
	CostLoggedStore = 6 * costScale
	CostCheckStore  = 1 * costScale
	costScale       = 1
)

type recKind uint8

const (
	recCellSet recKind = iota + 1
	recMapSet
	recMapDelete
	recSliceSet
	recSliceAppend
)

// undoRec is one entry of the undo log: which container was stored to,
// how, and where in that container's side log the old value sits. The
// store's half of a record is flat; the typed half (key or index, old
// value) lives in the container, so a logged store boxes nothing.
type undoRec struct {
	entry string
	kind  recKind
	pos   int // position of the record's entry in the side log
	bytes int
}

// sideLog is a container's typed half of the undo log: one entry per
// logged store of the current log epoch, in store order. Rollback undoes
// in reverse, so entries leave from the end, and a record's pos must find
// its entry there.
//
// The store empties its log in O(1) by moving to a new epoch
// (Store.dropLog); a side log notices at its next push, which is why
// entries of a finished epoch may linger until then.
type sideLog[E any] struct {
	epoch uint64
	recs  []E
}

// push appends e to the side log and returns its position.
func (l *sideLog[E]) push(s *Store, e E) int {
	if l.epoch != s.logEpoch {
		l.epoch = s.logEpoch
		clear(l.recs) // drop the finished epoch's references
		l.recs = l.recs[:0]
	}
	l.recs = append(l.recs, e)
	return len(l.recs) - 1
}

// pop removes and returns the entry at pos, which must be the newest.
func (l *sideLog[E]) pop(s *Store, id string, pos int) E {
	if l.epoch != s.logEpoch || pos < 0 || pos >= len(l.recs) {
		panic(fmt.Sprintf("memlog: undo record for %q has no entry in the container's side log", id))
	}
	if pos != len(l.recs)-1 {
		panic(fmt.Sprintf("memlog: undo record for %q is not the newest in the container's side log", id))
	}
	e := l.recs[pos]
	l.recs = l.recs[:pos]
	return e
}

// adopt moves into this side log (of a container in store s) what from
// (the same container in store fs) holds this epoch.
func (l *sideLog[E]) adopt(s *Store, from *sideLog[E], fs *Store) {
	l.epoch = s.logEpoch
	l.recs = l.recs[:0]
	if from.epoch != fs.logEpoch {
		return
	}
	l.recs, from.recs = from.recs, nil
}

// container is the interface implemented by Cell, Map and Slice so the
// Store can roll back, clone and account for them generically. Undo is
// the one way a container returns to a checkpoint, whatever the mode.
type container interface {
	name() string
	bytes() int
	// clone returns a copy of the container for dst, not yet registered
	// there, that shares its contents until either side writes.
	clone(dst *Store) container
	// reshare makes what the container holds exactly as prev does — the
	// container's copy in the store's previous capture, which it only
	// reads — prev's again, compared through x: a Cell's value, a paged
	// container's pages (pageTable.reshare). Contents stay as they are.
	reshare(prev container, x *sameScratch)
	undo(rec undoRec)
	// adoptLog moves in the side log of src, the container of the same
	// name in another store (TransferLog).
	adoptLog(src container)
	corrupt(r *sim.RNG) bool
	// meta exposes the per-container size and fingerprint bookkeeping.
	meta() *contMeta
	// codeState walks the container's contents through c: written when c
	// encodes and read when it decodes, for the on-disk store image
	// (image.go), and absorbed when it hashes, for the fingerprint.
	codeState(c *wire.Codec)
}

// contMeta is the per-container bookkeeping embedded in Cell, Map and
// Slice: the cached resident size that makes BaseBytes O(1), the cached
// fingerprint contribution and a count of the writes.
type contMeta struct {
	// size caches the container's approxSize sum; sizeStale marks it
	// invalid (the container is then listed in Store.sizeDirty).
	size      int
	sizeStale bool
	// fpMix is this container's contribution to the store's rolling
	// fingerprint; fpValid marks it current (and included in fpAgg),
	// fpQueued marks the container listed in Store.fpDirty.
	fpMix    uint64
	fpValid  bool
	fpQueued bool
	// writes counts the container's mutations (every touch) since it was
	// made, carried into its copies: a copy whose bookkeeping equals the
	// container's was made since its last write (Capture).
	writes uint64
}

// storeIdent is what every copy of a store inherits from it, a restart
// clone (Clone) included.
type storeIdent struct {
	label string
	mode  Instrumentation
	// generation counts how many times the owning component has been
	// restarted: 0 for the boot-time store. Component constructors use
	// it to run boot-only bootstrap (e.g. registering the init process)
	// exactly once — a freshly restarted stateless component must NOT
	// rediscover state it has genuinely lost.
	generation int
	// maxLogLen is the high-water record count; a store that outgrows
	// the pooled slab preallocates its next log to this mark.
	maxLogLen int
}

// storeCkpt is the checkpointing position of a store: a fork and an
// image reproduce it (ForkClone, image.go), a restart clone starts it
// afresh.
type storeCkpt struct {
	maxLogBytes int
	// baseBytes is the sum of every container's cached size; BaseBytes()
	// returns it after draining sizeDirty.
	baseBytes int
	// restorable reports whether a FullCopy store can roll back to its
	// last checkpoint: true between Checkpoint and the next DiscardLog,
	// and the stores in between keep undo records. Other modes log by
	// their own rule (shouldLog) and leave it false.
	restorable bool
	logging    bool
}

// Store is the instrumented data section of one simulated OS component.
// All of a server's recoverable state must live in containers registered
// with its Store. Its scalars sit in the two embedded structs, which its
// image embeds too, so every copy of them is one assignment.
type Store struct {
	storeIdent
	storeCkpt

	containers map[string]container
	order      []string

	log      []undoRec
	logBytes int
	// logEpoch names the current contents of log to the containers' side
	// logs; it moves on whenever the log is emptied other than by undoing
	// it. Host-only, like the side logs: an image has an empty log.
	logEpoch uint64

	charge   func(sim.Cycles)
	counters *sim.Counters

	// sizeDirty lists containers whose cached size is stale; BaseBytes
	// drains it to keep the baseBytes aggregate exact.
	sizeDirty []container

	// fpAgg is the rolling state fingerprint: the wrapping sum of every
	// fp-valid container's fpMix. fpDirty lists the containers whose
	// contribution is stale; Fingerprint() re-hashes only those, so a
	// quiescence barrier on a mostly-clean store is O(dirty). fp is the
	// hashing codec of a re-hash, kept here so that handing it to a
	// container does not put it on the heap. Host-only, like the side
	// logs.
	fpAgg   uint64
	fpDirty []container
	fp      wire.Codec

	// pending is set on a store decoded from an image (image.go) until
	// the component factory has materialized its containers: the decoded
	// record and the first materialization failure.
	pending    *storeImage
	pendingErr error

	// captured is the store's last Capture, and cmp what a capture
	// compares contents through, made by the first comparison. Host-only.
	captured *Store
	cmp      *sameScratch
}

// NewStore returns an empty Store for the named component, using the
// given instrumentation mode.
func NewStore(label string, mode Instrumentation) *Store {
	return &Store{
		storeIdent: storeIdent{label: label, mode: mode},
		containers: make(map[string]container),
		logEpoch:   1, // a zero-valued side log is never of the current epoch
	}
}

// Label reports the component name this store belongs to.
func (s *Store) Label() string { return s.label }

// Generation reports how many restarts preceded this store (0 = boot).
func (s *Store) Generation() int { return s.generation }

// SetGeneration records the restart count; the recovery engine calls
// this when building a replacement store.
func (s *Store) SetGeneration(n int) { s.generation = n }

// Mode reports the instrumentation mode.
func (s *Store) Mode() Instrumentation { return s.mode }

// SetCostSink installs the function used to charge virtual cycles for
// instrumented stores. A nil sink disables cost accounting.
func (s *Store) SetCostSink(charge func(sim.Cycles)) { s.charge = charge }

// SetCounters installs a counter set receiving store statistics.
func (s *Store) SetCounters(c *sim.Counters) { s.counters = c }

// SetLogging opens (true) or closes (false) write logging. The recovery
// window manager calls this when the window state changes; it only has
// an effect in Optimized mode (Unoptimized always logs, Baseline never).
func (s *Store) SetLogging(on bool) { s.logging = on }

// Logging reports whether stores are currently appended to the undo log.
func (s *Store) Logging() bool {
	switch s.mode {
	case Baseline, FullCopy:
		return false
	case Unoptimized:
		return true
	default:
		return s.logging
	}
}

// fullCopyCheckpointShift scales the virtual cost of a full-copy
// checkpoint: one cycle per 4 bytes of data section.
const fullCopyCheckpointShift = 2

// Checkpoint establishes the current state as the rollback target.
// Called at the top of the request-processing loop. With undo-log
// instrumentation it just discards the log. In FullCopy mode it also
// charges virtual cycles for copying the whole data section.
func (s *Store) Checkpoint() {
	s.dropLog()
	if s.mode != FullCopy || !s.logging {
		return
	}
	bytes := s.BaseBytes()
	s.restorable = true
	if bytes > s.maxLogBytes {
		// The resident copy plays the undo log's memory role.
		s.maxLogBytes = bytes
	}
	s.chargeStores(1, sim.Cycles(bytes)>>fullCopyCheckpointShift)
}

// DiscardLog drops the undo log without rolling back. Called when the
// recovery window closes: the checkpoint can no longer be restored.
func (s *Store) DiscardLog() {
	s.dropLog()
	s.restorable = false
}

// dropLog empties the undo log without undoing it, in O(1): the side logs
// learn of it from the epoch.
func (s *Store) dropLog() {
	s.log = s.log[:0]
	s.logBytes = 0
	s.logEpoch++
}

// LogLen reports the number of records currently in the undo log.
func (s *Store) LogLen() int { return len(s.log) }

// LogBytes reports the current undo-log size in (approximate) bytes.
func (s *Store) LogBytes() int { return s.logBytes }

// MaxLogBytes reports the high-water mark of the undo-log size since the
// store was created (Table VI's "+undo log" column).
func (s *Store) MaxLogBytes() int { return s.maxLogBytes }

// BaseBytes reports the approximate resident size of all containers
// (Table VI's base memory usage). The value is served from a cached
// aggregate: only containers written since the last call are re-sized,
// so the steady-state cost is O(1) instead of O(containers).
func (s *Store) BaseBytes() int {
	if len(s.sizeDirty) > 0 {
		for _, c := range s.sizeDirty {
			m := c.meta()
			if !m.sizeStale {
				continue
			}
			n := c.bytes()
			s.baseBytes += n - m.size
			m.size = n
			m.sizeStale = false
		}
		s.sizeDirty = s.sizeDirty[:0]
	}
	return s.baseBytes
}

// PeekBaseBytes is BaseBytes without settling the size cache: it
// writes nothing, as a capture's reader must not (Capture).
func (s *Store) PeekBaseBytes() int {
	n := s.baseBytes
	for _, c := range s.sizeDirty {
		if m := c.meta(); m.sizeStale {
			n += c.bytes() - m.size
		}
	}
	return n
}

// Rollback restores the state at the last Checkpoint by undoing all
// logged stores in reverse order, in every mode.
func (s *Store) Rollback() {
	for i := len(s.log) - 1; i >= 0; i-- {
		rec := s.log[i]
		c, ok := s.containers[rec.entry]
		if !ok {
			panic(fmt.Sprintf("memlog: undo record for unknown container %q", rec.entry))
		}
		c.undo(rec)
	}
	s.log = s.log[:0]
	s.logBytes = 0
}

// TransferLog moves this store's undo log to dst, leaving this store's
// log empty. It is used by the Recovery Server: the clone receives the
// crashed component's log and rolls it back on its own copy of the data.
func (s *Store) TransferLog(dst *Store) {
	// Hand over the backing array instead of copying: the source store
	// is the crashed component's and is about to be discarded.
	dst.ReleaseLog()
	dst.log = s.log
	dst.logBytes = s.logBytes
	if len(s.log) > 0 {
		s.sideLogsInto(dst)
	}
	if dst.logBytes > dst.maxLogBytes {
		dst.maxLogBytes = dst.logBytes
	}
	if len(dst.log) > dst.maxLogLen {
		dst.maxLogLen = len(dst.log)
	}
	s.log = nil
	s.logBytes = 0
	s.logEpoch++
}

// sideLogsInto hands every container's side log to its namesake in dst.
// A container dst lacks keeps its entries here; the records naming it
// then fail in dst's Rollback, as records for an unknown container do.
func (s *Store) sideLogsInto(dst *Store) {
	for _, name := range s.order {
		if c := dst.containers[name]; c != nil {
			c.adoptLog(s.containers[name])
		}
	}
}

// Clone produces a fresh Store with a copy of every container — the
// "data section copy" performed during the restart phase. The clone
// shares no mutable state with the original: the page tables of its
// Slices and Maps are shared but owned by neither side, so the first
// write to one copies it (pageTable). Its undo log starts empty, and it
// inherits the store's identity: label, mode, generation and log
// high-water mark.
func (s *Store) Clone() *Store {
	if s.pending != nil {
		panic(fmt.Sprintf("memlog: Clone on store %q before its image decode was materialized", s.label))
	}
	dst := NewStore(s.label, s.mode)
	dst.charge = s.charge
	dst.counters = s.counters
	// The identity carries the undo-log high-water mark, so the clone
	// preallocates its log to the size the component has already
	// demonstrated it needs.
	dst.storeIdent = s.storeIdent
	for _, name := range s.order {
		dst.register(s.containers[name].clone(dst))
	}
	return dst
}

// ForkClone produces a copy of the store, shared as Clone's is, that is
// faithful to the original's full checkpointing state, not just its
// data: the per-container size and fingerprint bookkeeping, the cached
// size aggregate, the checkpoint position and the high-water marks are
// all reproduced. A ForkClone behaves bit-identically to the original
// from this point on — the warm-fork plane relies on it.
// Like an image, it requires a quiescent store: it panics on undo records
// in flight (core's capture refuses such a machine first). A store that
// owns no page table — a snapshot's — is only read, so forks of it may
// be taken concurrently. The cost sink and counter set are NOT carried over
// (they reference the source machine); the caller must install the
// fork's own via SetCostSink/SetCounters.
func (s *Store) ForkClone() *Store {
	return s.forkClone(nil)
}

// Capture is ForkClone for a store whose copies are kept, one after
// another — the snapshot ladder holds one of every rung. It takes the
// copy of each container from the store's previous capture when nothing
// has written the container since and its bookkeeping stands where that
// capture left it: what the copy holds is then exactly what a fresh one
// would. A container written since takes back, page by page, what it
// holds exactly as that copy does — a write undone, a key set and
// deleted again — and its new copy shares those pages, and the copy's
// whole page table when every page is the copy's (pageTable.reshare).
// When every container's copy and the store's scalars are the previous
// capture's, so is the store. A capture is only ever read — by
// ForkClone, an encoding and PeekBaseBytes — so copies and contents
// shared between captures stay as they are.
func (s *Store) Capture() *Store {
	s.captured = s.forkClone(s.captured)
	return s.captured
}

// forkClone is ForkClone, taking the copy of each container from prev
// as Capture does (copyOf). prev may be nil.
func (s *Store) forkClone(prev *Store) *Store {
	if len(s.log) > 0 {
		panic(fmt.Sprintf("memlog: ForkClone of store %q with %d undo records in flight", s.label, len(s.log)))
	}
	if s.pending != nil {
		// Still pending: the decoded record is immutable and shared.
		return newPending(s.pending)
	}
	// The copy's order shares the source's: the source only ever appends
	// to it, past what the copy sees, and the copy's capacity ends there.
	n := len(s.order)
	dst := &Store{
		storeIdent: s.storeIdent,
		storeCkpt:  s.storeCkpt,
		containers: make(map[string]container, n),
		order:      s.order[:n:n],
		logEpoch:   1,
	}
	for _, name := range s.order {
		var cp container
		if prev != nil {
			cp = prev.containers[name]
		}
		dst.containers[name] = s.copyOf(s.containers[name], cp, dst)
	}
	dst.sizeDirty = dst.mapped(s.sizeDirty)
	// The meta copy carried fpMix/fpValid/fpQueued; rebuild the
	// invalidation queue and aggregate to match, so a fork's first
	// barrier fingerprint stays O(dirty) instead of re-hashing the world.
	dst.fpDirty = dst.mapped(s.fpDirty)
	dst.fpAgg = s.fpAgg
	if prev.same(dst) {
		return prev
	}
	return dst
}

// copyOf returns dst's copy of c, given prev, c's copy in the previous
// capture (nil for none). That is prev itself when c's bookkeeping still
// equals prev's: nothing has written c since. Otherwise c first takes
// back what it holds exactly as prev does (reshare), and the copy is a
// clone with c's exact bookkeeping, not the fresh one register() would
// give. Equal fingerprint mixes only let the comparison run; unequal ones
// spare it.
func (s *Store) copyOf(c, prev container, dst *Store) container {
	m := c.meta()
	if prev != nil && *prev.meta() == *m {
		return prev
	}
	if prev != nil && (!m.fpValid || !prev.meta().fpValid || m.fpMix == prev.meta().fpMix) {
		if s.cmp == nil {
			s.cmp = new(sameScratch)
		}
		c.reshare(prev, s.cmp)
	}
	cp := c.clone(dst)
	*cp.meta() = *m
	return cp
}

// sameScratch is what Capture compares contents through: each side's
// elements encoded, in buffers kept from one comparison to the next.
// Equal encodings are equal contents — decoding either gives the other,
// and every fingerprint, size and image is a walk of the same field
// lists.
type sameScratch struct {
	a, b scratchEncoder
}

// same reports whether the two walks since the last restart encoded the
// same bytes.
func (x *sameScratch) same() bool {
	return x.a.c.Err() == nil && x.b.c.Err() == nil && bytes.Equal(x.a.e.Bytes(), x.b.e.Bytes())
}

// scratchEncoder is an encoder that each walk empties with its buffer
// kept: empty is the encoder as it was with no bytes and room bytes of
// buffer, which wire.Encoder has no way back to of its own.
type scratchEncoder struct {
	e, empty wire.Encoder
	room     int
	c        *wire.Codec
}

// restart empties the encoder and returns its codec. One that outgrew
// its room gets a buffer of the size it reached, so that a steady run of
// comparisons allocates nothing.
func (s *scratchEncoder) restart() *wire.Codec {
	if n := s.e.Len(); n > s.room {
		s.empty = wire.Encoder{}
		s.empty.Grow(n)
		s.room = n
	}
	s.e = s.empty
	s.c = wire.Encoding(&s.e)
	return s.c
}

// same reports whether s holds exactly what o does: the same scalars,
// the same container copies and the same invalidation queues. s may be
// nil.
func (s *Store) same(o *Store) bool {
	if s == nil || s.storeIdent != o.storeIdent || s.storeCkpt != o.storeCkpt || s.fpAgg != o.fpAgg ||
		len(s.order) != len(o.order) || !slices.Equal(s.sizeDirty, o.sizeDirty) || !slices.Equal(s.fpDirty, o.fpDirty) {
		return false
	}
	for name, c := range o.containers {
		if s.containers[name] != c {
			return false
		}
	}
	return true
}

// mapped returns the containers of s named like those of list, in its
// order.
func (s *Store) mapped(list []container) []container {
	if len(list) == 0 {
		return nil
	}
	out := make([]container, len(list))
	for i, c := range list {
		out[i] = s.containers[c.name()]
	}
	return out
}

// touch records a mutation of c: its cached size and fingerprint
// contribution are invalidated. Amortized O(1) and allocation-free once
// the tracking slices have grown to the store's working set.
func (s *Store) touch(c container, m *contMeta) {
	m.writes++
	if !m.sizeStale {
		m.sizeStale = true
		s.sizeDirty = append(s.sizeDirty, c)
	}
	if m.fpValid {
		s.fpAgg -= m.fpMix
		m.fpValid = false
	}
	if !m.fpQueued {
		m.fpQueued = true
		s.fpDirty = append(s.fpDirty, c)
	}
}

// Fingerprint returns a content hash of every container's current
// state. Two stores holding the same containers with the same contents
// fingerprint identically regardless of history: each container's
// contribution is its name and its codeState walk, hashed, and
// contributions combine by wrapping addition, so registration order
// does not matter. The value is maintained as a rolling aggregate —
// only containers written since the previous call are re-hashed — which
// keeps quiescence-barrier fingerprinting O(dirty set).
func (s *Store) Fingerprint() (uint64, error) {
	if len(s.fpDirty) > 0 {
		for _, c := range s.fpDirty {
			m := c.meta()
			m.fpQueued = false
			if m.fpValid {
				continue
			}
			s.fp = wire.Hashing(sim.NewHash())
			s.fp.Tag(c.name())
			if c.codeState(&s.fp); s.fp.Err() != nil {
				return 0, fmt.Errorf("memlog: fingerprint container %q: %w", c.name(), s.fp.Err())
			}
			m.fpMix = s.fp.Sum()
			m.fpValid = true
			s.fpAgg += m.fpMix
		}
		s.fpDirty = s.fpDirty[:0]
	}
	return s.fpAgg, nil
}

// CorruptRandom silently corrupts one random container value, bypassing
// the undo log — the analogue of a fail-silent memory corruption fault
// (EDFI's non-fail-stop fault classes). Under FullCopy it goes through
// the logged store path instead: a full copy restores whatever the data
// section held at the checkpoint, so a rollback undoes the corruption
// too. It reports whether any value was actually changed.
func (s *Store) CorruptRandom(r *sim.RNG) bool {
	if len(s.order) == 0 {
		return false
	}
	// Try a few containers; some may be empty or hold uncorruptible types.
	for attempt := 0; attempt < 8; attempt++ {
		name := s.order[r.Intn(len(s.order))]
		if s.containers[name].corrupt(r) {
			return true
		}
	}
	return false
}

// register adds a container under its unique name. Its size and
// fingerprint are not yet cached.
func (s *Store) register(c container) {
	if _, dup := s.containers[c.name()]; dup {
		panic(fmt.Sprintf("memlog: duplicate container %q in store %q", c.name(), s.label))
	}
	s.containers[c.name()] = c
	s.order = append(s.order, c.name())
	s.touch(c, c.meta())
}

// lookup returns the container registered under name, or nil.
func (s *Store) lookup(name string) container {
	return s.containers[name]
}

// shouldLog reports whether an instrumented store must append an undo
// record right now. Containers check it before building the record, so
// the not-logging fast paths never copy old values aside.
func (s *Store) shouldLog() bool {
	switch s.mode {
	case Unoptimized:
		return true
	case Optimized:
		return s.logging
	case FullCopy:
		return s.restorable
	default: // Baseline
		return false
	}
}

// appendLogged appends rec and charges the logged-store cost. Callers
// must have checked shouldLog. A FullCopy record stands in for the copy
// its checkpoint charged for: it charges and counts nothing, and no part
// of the undo log's accounting sees it.
func (s *Store) appendLogged(rec undoRec) {
	if s.log == nil {
		s.grabSlab(1)
	}
	s.log = append(s.log, rec)
	if s.mode == FullCopy {
		return
	}
	if len(s.log) > s.maxLogLen {
		s.maxLogLen = len(s.log)
	}
	s.logBytes += rec.bytes + recOverheadBytes
	if s.logBytes > s.maxLogBytes {
		s.maxLogBytes = s.logBytes
	}
	if s.counters != nil {
		s.counters.AddID(ctrStoresLogged, 1)
	}
	s.chargeStores(1, CostLoggedStore)
}

// noteUnloggedStores charges the cost of n instrumented stores that did
// not log: nothing in Baseline/FullCopy, the cloned fast path's window
// check each in Optimized mode, counted and charged at once.
// (Unoptimized always logs and never gets here.)
func (s *Store) noteUnloggedStores(n int) {
	if s.mode == Optimized {
		s.chargeStores(n, sim.Cycles(n)*CostCheckStore)
	}
}

// slabRecords is the capacity of pooled undo-log slabs. Component logs
// are short in the common case (one request's worth of stores); larger
// logs fall back to a dedicated allocation sized to the store's
// high-water mark.
const slabRecords = 512

// slabPool recycles undo-log backing arrays across component restarts
// and simulated boots. Entries are slice pointers so Put/Get stay
// allocation-free.
var slabPool = sync.Pool{New: func() any {
	s := make([]undoRec, 0, slabRecords)
	return &s
}}

// grabSlab attaches a backing array able to hold at least n records:
// the pooled slab when the store's high-water mark fits in one,
// otherwise a fresh array preallocated to that mark.
func (s *Store) grabSlab(n int) {
	want := s.maxLogLen
	if want < n {
		want = n
	}
	if want <= slabRecords {
		s.log = *slabPool.Get().(*[]undoRec)
		return
	}
	s.log = make([]undoRec, 0, want)
}

// ReleaseLog detaches the store's undo-log backing array, returning
// pooled slabs for reuse by later boots. The store remains
// usable afterwards: the next logged store acquires a fresh backing
// array.
func (s *Store) ReleaseLog() {
	if cap(s.log) == slabRecords {
		slab := s.log[:0]
		slabPool.Put(&slab)
	}
	s.log = nil
	s.logBytes = 0
	s.logEpoch++
}

// chargeStores counts stores instrumented stores and charges cycles for
// them.
func (s *Store) chargeStores(stores int, cycles sim.Cycles) {
	if s.counters != nil {
		s.counters.AddID(ctrStoresTotal, uint64(stores))
	}
	if s.charge != nil {
		s.charge(cycles)
	}
}

// recOverheadBytes approximates the per-record bookkeeping of the undo
// log (address + length + list linkage in the original implementation).
const recOverheadBytes = 16

// approxSize estimates the resident size of a value for memory
// accounting. It intentionally errs small and stable rather than exact.
func approxSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint, uint64, float64, uintptr:
		return 8
	case string:
		return 16 + len(x)
	case []byte:
		return 24 + len(x)
	default:
		return 16
	}
}

// corruptValue perturbs a value of a supported type, returning the new
// value and true, or the zero value and false for unsupported types.
func corruptValue(v any, r *sim.RNG) (any, bool) {
	switch x := v.(type) {
	case bool:
		return !x, true
	case int:
		return x ^ (1 << uint(r.Intn(16))), true
	case int32:
		return x ^ (1 << uint(r.Intn(16))), true
	case int64:
		return x ^ (1 << uint(r.Intn(32))), true
	case uint32:
		return x ^ (1 << uint(r.Intn(16))), true
	case uint64:
		return x ^ (1 << uint(r.Intn(32))), true
	case string:
		if len(x) == 0 {
			return x + "\x01", true
		}
		i := r.Intn(len(x))
		b := []byte(x)
		b[i] ^= byte(1 + r.Intn(255))
		return string(b), true
	default:
		return nil, false
	}
}
