package kernel

// This file implements the IPC fault-injection plane and the end-to-end
// request reliability layer (EDFI-style interposition on the message
// fabric). Every Context-level send — SendRec requests, asynchronous
// Send messages, and server replies — passes through the plane,
// which can deterministically drop, duplicate, delay, reorder, or
// corrupt the message. Kernel-internal deliveries (PostMessage, alarm
// delivery, recovery-engine error virtualization) are part of the
// Reliable Computing Base and are never interposed.
//
// The plane always carries the end-to-end reliability layer
// (IPCReliability.TimeoutCycles > 0, which SetIPCFaultPlane demands), so
// the transport provides at-most-once request semantics:
//
//   - every interposed message carries a per-(src,dst) sequence number
//     and a payload checksum;
//   - corrupted payloads are discarded at delivery (link-layer CRC) and
//     treated as loss;
//   - duplicate deliveries are suppressed at the destination inbox;
//   - a sender blocked in SendRec is watched by the kernel: on timeout
//     the transport redelivers the cached reply (lost-reply case),
//     re-arms the deadline if the request was delivered and is still
//     being served (slow-server case — this never consumes a retry),
//     or retransmits with bounded exponential backoff (lost-request
//     case) until ipcRetryMax is exhausted and the request is abandoned
//     with a dead-letter ETIMEDOUT reply;
//   - asynchronous sends get link-layer ARQ: a dropped or corrupted
//     async message is scheduled for retransmission after the timeout,
//     bounded by the same retry budget, then dead-lettered.
//
// Everything is a pure function of the plane's seed: the kernel runs
// one process at a time, so fault decisions are drawn in a fixed order
// from a dedicated RNG that never touches the machine's root RNG.
// Without a plane (the default) no state is allocated and runs are
// bit-identical to builds without this file.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/wire"
)

// IPCFaultKind is one interposition fault behaviour.
type IPCFaultKind int

const (
	// IPCDrop silently discards the message.
	IPCDrop IPCFaultKind = iota + 1
	// IPCDup delivers the message twice.
	IPCDup
	// IPCDelay holds the message for DefaultIPCDelayCycles before
	// delivery.
	IPCDelay
	// IPCReorder delivers the message ahead of messages already queued
	// at the destination.
	IPCReorder
	// IPCCorrupt scrambles the payload registers before delivery.
	IPCCorrupt
)

// String names the fault kind.
func (k IPCFaultKind) String() string {
	switch k {
	case IPCDrop:
		return "ipc-drop"
	case IPCDup:
		return "ipc-dup"
	case IPCDelay:
		return "ipc-delay"
	case IPCReorder:
		return "ipc-reorder"
	case IPCCorrupt:
		return "ipc-corrupt"
	default:
		return fmt.Sprintf("IPCFaultKind(%d)", int(k))
	}
}

// IPCFaultConfig sets the background fault rates of the interposition
// plane, in basis points (1 bp = 0.01% of interposed messages). The
// zero value injects nothing; armed one-shot faults (ArmIPCFault) work
// regardless of the rates.
type IPCFaultConfig struct {
	DropBP, DupBP, DelayBP, ReorderBP, CorruptBP int
	// delayCycles holds the image slot of the former delay-hold
	// setting, now the constant DefaultIPCDelayCycles.
	delayCycles wire.Retired
}

// DefaultIPCDelayCycles is how long a delayed message is held.
const DefaultIPCDelayCycles sim.Cycles = 25_000

// ipcRetryMax bounds retransmissions per message before it is abandoned
// to the dead-letter counter.
const ipcRetryMax = 4

// Enabled reports whether any background fault rate is non-zero.
func (c IPCFaultConfig) Enabled() bool {
	return c.DropBP > 0 || c.DupBP > 0 || c.DelayBP > 0 || c.ReorderBP > 0 || c.CorruptBP > 0
}

// Validate rejects nonsensical rate configurations.
func (c IPCFaultConfig) Validate() error {
	rates := [...]struct {
		name string
		bp   int
	}{
		{"DropBP", c.DropBP}, {"DupBP", c.DupBP}, {"DelayBP", c.DelayBP},
		{"ReorderBP", c.ReorderBP}, {"CorruptBP", c.CorruptBP},
	}
	total := 0
	for _, r := range rates {
		if r.bp < 0 || r.bp > 10000 {
			return fmt.Errorf("kernel: IPC fault rate %s must be in [0, 10000] basis points, got %d", r.name, r.bp)
		}
		total += r.bp
	}
	if total > 10000 {
		return fmt.Errorf("kernel: IPC fault rates sum to %d basis points (> 10000)", total)
	}
	return nil
}

// IPCReliability configures the end-to-end reliability layer.
type IPCReliability struct {
	// TimeoutCycles is the base sender-side timeout; retransmissions
	// back off exponentially from it (bounded at 8x). It must be
	// positive: a plane never runs without the layer.
	TimeoutCycles sim.Cycles
}

// IPCStats is the transport's conservation ledger. With the plane
// enabled the invariant
//
//	Sent == Delivered + Dropped + DupSuppressed + PendingDelayed
//
// holds at every kernel-loop boundary: every transmission is eventually
// delivered to an inbox or reply slot, consumed by a fault (or lost to
// a dead destination), suppressed as a duplicate, or still held in the
// delay queue. The audit package checks exactly this equation.
type IPCStats struct {
	// Sent counts transmissions (retransmissions and duplicate copies
	// count separately).
	Sent uint64
	// Delivered counts messages placed into a destination inbox or
	// reply slot.
	Delivered uint64
	// Dropped counts transmissions consumed by a drop fault, discarded
	// by the link-layer checksum, or lost because the destination died.
	Dropped uint64
	// DupSuppressed counts deliveries rejected by sequence-number
	// deduplication.
	DupSuppressed uint64
	// PendingDelayed counts in-flight messages currently held in the
	// delay queue. Scheduled link-layer retransmissions are NOT
	// included: their transmission has not been rolled yet, so they are
	// tracked in PendingARQ outside the conservation equation (the
	// lost original was already accounted under Dropped).
	PendingDelayed uint64
	// PendingARQ counts link-layer retransmissions scheduled but not
	// yet re-sent.
	PendingARQ uint64

	// Duplicated counts dup faults, Delayed delay faults, Reordered
	// head-of-queue deliveries, CorruptInjected corruption faults.
	Duplicated, Delayed, Reordered, CorruptInjected uint64
	// CorruptDropped counts deliveries discarded by checksum mismatch
	// (also included in Dropped).
	CorruptDropped uint64
	// Timeouts counts sender-deadline expiries; Retransmits the
	// retransmissions they (or the async ARQ) caused;
	// ReplyRedeliveries the lost replies recovered from the reply
	// cache.
	Timeouts, Retransmits, ReplyRedeliveries uint64
	// DeadLetters counts messages abandoned after ipcRetryMax
	// retransmissions.
	DeadLetters uint64
	// StaleReplies counts sequenced replies discarded because the
	// sender had already moved past that request — the delayed or
	// duplicated original of a reply that was meanwhile recovered from
	// the reply cache. Also included in Dropped.
	StaleReplies uint64
}

// ipcNone is the "no pending IPC event" sentinel of Kernel.ipcNextDue.
const ipcNone = ^sim.Cycles(0)

// seqWindow is a sliding anti-replay window over one pair's delivered
// sequence numbers (the RFC 4303 bitmap scheme): top is the highest
// delivered sequence, bit i of bits marks top-i as delivered. Sequences
// more than 63 behind top are assumed duplicates — far older than
// anything the bounded retry budget can still have in flight.
type seqWindow struct {
	top  uint32
	bits uint64
}

// mark records seq as delivered and reports whether it already was (a
// duplicate to suppress).
func (w *seqWindow) mark(seq uint32) bool {
	if seq > w.top {
		if shift := seq - w.top; shift >= 64 {
			w.bits = 1
		} else {
			w.bits = w.bits<<shift | 1
		}
		w.top = seq
		return false
	}
	off := w.top - seq
	if off >= 64 || w.bits&(1<<off) != 0 {
		return true
	}
	w.bits |= 1 << off
	return false
}

// has reports whether seq was delivered.
func (w seqWindow) has(seq uint32) bool {
	if seq > w.top {
		return false
	}
	off := w.top - seq
	return off >= 64 || w.bits&(1<<off) != 0
}

// ipcFate is the outcome of one fault roll.
type ipcFate int

const (
	fateNone ipcFate = iota
	fateDrop
	fateDup
	fateDelay
	fateReorder
	fateCorrupt
)

// heldMsg is one entry of the delay queue: a message to deliver or
// retransmit at due. Queue order breaks due-time ties, so release
// order is deterministic.
type heldMsg struct {
	due sim.Cycles
	msg Message
	// reply marks server replies (delivered through the reply path).
	reply bool
	// retransmit marks link-layer ARQ entries: at due the message is
	// retransmitted through a fresh fault roll instead of delivered.
	retransmit bool
	// attempts counts transmissions of an ARQ entry so far.
	attempts int
}

// cachedReply is the last reply a server produced for one client,
// keyed by the request sequence number it answers.
type cachedReply struct {
	seq uint32
	msg Message
}

// pairState is the reliability layer's record of one (dst, src) pair,
// made on the pair's first sequenced message and then only written in
// place. Every sequence number the layer hands out is at least 1, so a
// zero field is one the pair has not used yet: the fingerprint and the
// image's size list exactly the non-zero ones.
type pairState struct {
	// nextSeq is the last sequence number src's messages to dst took.
	nextSeq uint32
	// svcSeq is the request sequence dst is answering for src.
	svcSeq uint32
	// seen tracks which of src's sequences were delivered to dst: an
	// exact anti-replay window, since delay and reorder faults plus ARQ
	// recovery deliver a pair's messages out of order.
	seen seqWindow
	// reply is dst's last reply to src, for lost-reply redelivery.
	reply cachedReply
}

// pairTable is the transport state of every pair, indexed by endpoint
// as the process table is: rows[dst][src], nil until the pair's first
// sequenced message. Endpoints are small and never reused, so a lookup
// is two bounds-checked loads. It lives on the plane, not the process,
// so it survives ReplaceProcess: the transport is part of the Reliable
// Computing Base.
type pairTable [][]*pairState

// get returns the pair's record, or nil if it has none.
func (t pairTable) get(dst, src Endpoint) *pairState {
	if uint(dst) < uint(len(t)) {
		if row := t[dst]; uint(src) < uint(len(row)) {
			return row[src]
		}
	}
	return nil
}

// at returns the pair's record, making it on first use and growing the
// table to reach it.
func (t *pairTable) at(dst, src Endpoint) *pairState {
	if ps := t.get(dst, src); ps != nil {
		return ps
	}
	if n := int(dst) + 1; n > len(*t) {
		*t = append(*t, make(pairTable, n-len(*t))...)
	}
	row := &(*t)[dst]
	if n := int(src) + 1; n > len(*row) {
		*row = append(*row, make([]*pairState, n-len(*row))...)
	}
	ps := new(pairState)
	(*row)[src] = ps
	return ps
}

// clone copies the table: the records into one slab, the rows into
// another, each row capped at its length, so that growing one copies it
// rather than writing over the next. Cached reply messages share their
// payloads, which nothing mutates once a reply was sent.
func (t pairTable) clone() pairTable {
	if t == nil {
		return nil
	}
	recs, cells := 0, 0
	for _, row := range t {
		cells += len(row)
		for _, ps := range row {
			if ps != nil {
				recs++
			}
		}
	}
	slab := make([]pairState, 0, recs)
	slots := make([]*pairState, cells)
	out := make(pairTable, len(t))
	for dst, row := range t {
		if len(row) == 0 {
			continue
		}
		out[dst], slots = slots[:len(row):len(row)], slots[len(row):]
		for src, ps := range row {
			if ps != nil {
				slab = append(slab, *ps)
				out[dst][src] = &slab[len(slab)-1]
			}
		}
	}
	return out
}

// pairFields say, per field of a pair record, whether a record holds it:
// its sequence cursor, its anti-replay window, its in-service sequence
// and its cached reply, the order the fingerprint folds them in.
var pairFields = [...]func(*pairState) bool{
	func(s *pairState) bool { return s.nextSeq != 0 },
	func(s *pairState) bool { return s.seen.top != 0 },
	func(s *pairState) bool { return s.svcSeq != 0 },
	func(s *pairState) bool { return s.reply.seq != 0 },
}

// holding calls visit for every pair whose record holds a field, in
// (dst, src) order.
func (t pairTable) holding(holds func(*pairState) bool, visit func(dst, src Endpoint, ps *pairState)) {
	for dst, row := range t {
		for src, ps := range row {
			if ps != nil && holds(ps) {
				visit(Endpoint(dst), Endpoint(src), ps)
			}
		}
	}
}

// planeState is the transport state that outlives a quiescence barrier.
type planeState struct {
	stats IPCStats
	// pairs is the reliability layer's record of every pair.
	pairs pairTable
}

// clone copies the state: the scalars by assignment, then the table.
func (s *planeState) clone() planeState {
	out := *s
	out.pairs = s.pairs.clone()
	return out
}

// ipcPlane is the interposition plane of one machine. It exists only
// when SetIPCFaultPlane made it; a nil plane is the default and leaves
// every IPC path untouched.
type ipcPlane struct {
	k   *Kernel
	cfg IPCFaultConfig
	// timeout is the base sender-side timeout (IPCReliability).
	timeout sim.Cycles
	rng     *sim.RNG

	// planeState is the part an image carries: the statistics and the
	// reliability layer's bookkeeping. The fault RNG is deliberately not
	// in it: it is never drawn during a fault-free boot, and each fork
	// re-seeds its own from the per-run fault seed.
	planeState

	held []heldMsg
	// releasing is fireDueIPC's scratch for the due entries split out of
	// held, kept between calls so a release allocates nothing.
	releasing []heldMsg

	// deadlines indexes the senders whose SendRec deadline may be armed,
	// in endpoint order: armSendDeadline inserts, fireDueIPC prunes the
	// disarmed and the dead, and both it and nextDue read nothing else —
	// not k.order, which holds every process the machine ever spawned.
	deadlines []*Process

	// armed holds one-shot faults per sending endpoint (campaign
	// injection); an armed fault fires on the endpoint's next
	// interposed transmission, taking precedence over the rates.
	armed map[Endpoint]IPCFaultKind
}

// SetIPCFaultPlane makes the machine's interposition plane with the
// given background fault rates, reliability configuration and fault
// seed. Must be called once, before Run. Panics on an invalid config or
// a zero timeout (mirrors how the kernel surfaces misconfiguration at
// boot; core.Config.Validate rejects both before they reach here).
func (k *Kernel) SetIPCFaultPlane(cfg IPCFaultConfig, rel IPCReliability, seed uint64) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if rel.TimeoutCycles == 0 {
		panic("kernel: IPC fault plane without a reliability timeout")
	}
	k.ipc = &ipcPlane{
		k:       k,
		cfg:     cfg,
		timeout: rel.TimeoutCycles,
		rng:     sim.NewRNG(seed ^ 0x19C0FA17),
		armed:   make(map[Endpoint]IPCFaultKind),
	}
}

// ArmIPCFault arms a one-shot fault on the next interposed message sent
// by ep (EDFI campaign injection). It works with all background rates
// at zero, but not without a plane: arming one panics.
func (k *Kernel) ArmIPCFault(ep Endpoint, kind IPCFaultKind) {
	if k.ipc == nil {
		panic("kernel: ArmIPCFault on a machine without an IPC fault plane")
	}
	k.ipc.armed[ep] = kind
}

// IPCStats returns the transport ledger and whether the plane exists.
func (k *Kernel) IPCStats() (IPCStats, bool) {
	if k.ipc == nil {
		return IPCStats{}, false
	}
	return k.ipc.stats, true
}

// ipcChecksum hashes the payload-bearing fields of m (FNV-1a over the
// registers, strings and sequence number). The Sum field itself is
// excluded. Zero is never returned, so Sum != 0 marks checked messages.
func ipcChecksum(m *Message) uint32 {
	h := uint64(0xCBF29CE484222325)
	step := func(v uint64) {
		h ^= v
		h *= 0x100000001B3
	}
	step(uint64(uint32(m.Type)))
	step(uint64(uint32(m.From))<<32 | uint64(uint32(m.To)))
	step(uint64(m.A))
	step(uint64(m.B))
	step(uint64(m.C))
	step(uint64(m.D))
	step(uint64(uint32(m.Errno)))
	step(uint64(m.Seq))
	for i := 0; i < len(m.Str); i++ {
		step(uint64(m.Str[i]))
	}
	step(0xFF)
	for i := 0; i < len(m.Str2); i++ {
		step(uint64(m.Str2[i]))
	}
	step(uint64(len(m.Bytes)))
	sum := uint32(h) ^ uint32(h>>32)
	if sum == 0 {
		sum = 1
	}
	return sum
}

// prepare assigns the sequence number and checksum of a first
// transmission (retransmissions keep theirs).
func (ipc *ipcPlane) prepare(m *Message) {
	ps := ipc.pairs.at(m.To, m.From)
	ps.nextSeq++
	m.Seq = ps.nextSeq
	m.Sum = ipcChecksum(m)
}

// roll draws the fate of one transmission: the sender's armed one-shot
// fault if present, else a single banded roll against the background
// rates. Fates a reply cannot meaningfully suffer (dup would orphan a
// stray message in the sender's inbox; reorder has no queue to jump)
// degrade to plain delivery.
func (ipc *ipcPlane) roll(sender Endpoint, isReply bool) ipcFate {
	fate := fateNone
	if kind, ok := ipc.armed[sender]; ok {
		delete(ipc.armed, sender)
		fate = fateForKind(kind)
	} else if ipc.cfg.Enabled() {
		r := ipc.rng.Intn(10000)
		switch {
		case r < ipc.cfg.DropBP:
			fate = fateDrop
		case r < ipc.cfg.DropBP+ipc.cfg.DupBP:
			fate = fateDup
		case r < ipc.cfg.DropBP+ipc.cfg.DupBP+ipc.cfg.DelayBP:
			fate = fateDelay
		case r < ipc.cfg.DropBP+ipc.cfg.DupBP+ipc.cfg.DelayBP+ipc.cfg.ReorderBP:
			fate = fateReorder
		case r < ipc.cfg.DropBP+ipc.cfg.DupBP+ipc.cfg.DelayBP+ipc.cfg.ReorderBP+ipc.cfg.CorruptBP:
			fate = fateCorrupt
		}
	}
	if isReply && (fate == fateDup || fate == fateReorder) {
		return fateNone
	}
	return fate
}

// fateForKind maps an armed fault kind to a fate.
func fateForKind(k IPCFaultKind) ipcFate {
	switch k {
	case IPCDrop:
		return fateDrop
	case IPCDup:
		return fateDup
	case IPCDelay:
		return fateDelay
	case IPCReorder:
		return fateReorder
	case IPCCorrupt:
		return fateCorrupt
	default:
		return fateNone
	}
}

// corrupt scrambles the payload registers deterministically. The
// checksum is left as computed over the original payload, so the link
// checksum detects the corruption.
func (ipc *ipcPlane) corrupt(m *Message) {
	x := ipc.rng.Uint64()
	m.A ^= int64(x | 1)
	m.B ^= int64(x>>7 | 1)
	m.C ^= int64(x>>13 | 1)
	m.D ^= int64(x>>23 | 1)
	ipc.stats.CorruptInjected++
}

// xmit transmits one prepared message toward its destination through a
// fault roll. Both first transmissions and retransmissions come here;
// attempts is the transmission count so far (for async ARQ scheduling).
// m is only read: it may be the sender's pendingReq, which a
// retransmission must find clean.
func (ipc *ipcPlane) xmit(m *Message, attempts int) {
	ipc.stats.Sent++
	switch ipc.roll(m.From, false) {
	case fateDrop:
		ipc.stats.Dropped++
		ipc.scheduleARQ(m, attempts)
	case fateDup:
		ipc.stats.Duplicated++
		ipc.deliver(m, false)
		ipc.stats.Sent++
		ipc.deliver(m, false)
	case fateDelay:
		ipc.stats.Delayed++
		ipc.hold(heldMsg{due: ipc.k.clock.Now() + DefaultIPCDelayCycles, msg: *m})
	case fateReorder:
		ipc.deliver(m, true)
	case fateCorrupt:
		bad := *m
		ipc.corrupt(&bad)
		ipc.deliver(&bad, false)
		// The corrupted copy is certain to be discarded by the link
		// checksum: schedule the clean original for retransmission
		// (async only; requests are recovered by the sender-side
		// deadline).
		ipc.scheduleARQ(m, attempts)
	default:
		ipc.deliver(m, false)
	}
}

// scheduleARQ schedules a link-layer retransmission of a lost
// asynchronous message. Requests awaiting a reply are recovered by the
// sender-side deadline instead.
func (ipc *ipcPlane) scheduleARQ(m *Message, attempts int) {
	if m.NeedsReply || m.Seq == 0 {
		return
	}
	if attempts > ipcRetryMax {
		ipc.stats.DeadLetters++
		return
	}
	ipc.hold(heldMsg{
		due:        ipc.k.clock.Now() + ipc.timeout,
		msg:        *m,
		retransmit: true,
		attempts:   attempts,
	})
}

// deliver places a message into the destination inbox, after link-layer
// checksum verification and duplicate suppression. front selects
// head-of-queue insertion (reorder fault).
func (ipc *ipcPlane) deliver(m *Message, front bool) {
	if m.Sum != 0 && ipcChecksum(m) != m.Sum {
		ipc.stats.CorruptDropped++
		ipc.stats.Dropped++
		return
	}
	if m.Seq != 0 && ipc.pairs.at(m.To, m.From).seen.mark(m.Seq) {
		ipc.stats.DupSuppressed++
		return
	}
	target := ipc.k.procs.get(m.To)
	if target == nil || ipc.k.IsQuarantined(m.To) ||
		(!target.Alive() && !ipc.k.RecoveryPending(m.To)) {
		// Destination is gone for good: transport-level loss.
		ipc.stats.Dropped++
		return
	}
	ipc.stats.Delivered++
	if front && target.queueLen() > 0 {
		ipc.stats.Reordered++
		target.pushMsgFront(m)
		return
	}
	target.pushMsg(m)
}

// xmitReply transmits a server reply through the plane. The reply
// inherits the sequence number of the request it answers and is cached
// for lost-reply redelivery.
func (ipc *ipcPlane) xmitReply(from *Process, to Endpoint, m *Message) {
	m.From = from.ep
	m.To = to
	if ps := ipc.pairs.get(from.ep, to); ps != nil && ps.svcSeq != 0 {
		m.Seq = ps.svcSeq
		m.Sum = ipcChecksum(m)
		ps.reply.seq = ps.svcSeq
		ps.reply.msg = *m
	}
	ipc.stats.Sent++
	switch ipc.roll(from.ep, true) {
	case fateDrop:
		// The sender's deadline recovers the reply from the cache.
		ipc.stats.Dropped++
	case fateDelay:
		ipc.stats.Delayed++
		ipc.hold(heldMsg{due: ipc.k.clock.Now() + DefaultIPCDelayCycles, msg: *m, reply: true})
	case fateCorrupt:
		ipc.corrupt(m)
		ipc.deliverReply(m)
	default:
		ipc.deliverReply(m)
	}
}

// deliverReply hands a reply to the kernel's reply path, after the
// link-layer checksum, keeping the conservation ledger balanced when
// the caller died meanwhile.
func (ipc *ipcPlane) deliverReply(m *Message) {
	if m.Sum != 0 && ipcChecksum(m) != m.Sum {
		// Corrupt reply discarded at the link; the sender's deadline
		// redelivers the clean copy from the reply cache.
		ipc.stats.CorruptDropped++
		ipc.stats.Dropped++
		return
	}
	if m.Seq != 0 {
		if p := ipc.k.procs.get(m.To); p != nil && p.state == stateSendRec &&
			p.waitFrom == m.From && p.pendingReq.Seq != m.Seq {
			// A reply to an older request reaching a sender now blocked
			// on a later one: the original was already recovered from the
			// reply cache, and accepting this copy would unblock the
			// wrong call with the wrong payload. At-most-once demands it
			// be discarded; the in-flight request is answered by its own
			// reply or by the deadline machinery.
			ipc.stats.StaleReplies++
			ipc.stats.Dropped++
			return
		}
	}
	if !ipc.k.deliverReply(m) {
		ipc.stats.Dropped++
		ipc.k.counters.AddID(ctrRepliesDropped, 1)
		return
	}
	ipc.stats.Delivered++
}

// hold enqueues a delayed (or ARQ) entry and pulls the kernel's
// next-IPC-event horizon forward.
func (ipc *ipcPlane) hold(h heldMsg) {
	if h.retransmit {
		ipc.stats.PendingARQ++
	} else {
		ipc.stats.PendingDelayed++
	}
	ipc.held = append(ipc.held, h)
	if h.due < ipc.k.ipcNextDue {
		ipc.k.ipcNextDue = h.due
	}
}

// noteReceive runs at message pop time: it records which request
// sequence the server is now answering, so the eventual reply can be
// matched, checked and cached per client.
func (ipc *ipcPlane) noteReceive(p *Process, m *Message) {
	if m.NeedsReply && m.Seq != 0 {
		ipc.pairs.at(p.ep, m.From).svcSeq = m.Seq
	}
}

// retryTimeout is the deadline for the attempts-th transmission:
// exponential backoff from the base timeout, bounded at 8x.
func (ipc *ipcPlane) retryTimeout(attempts int) sim.Cycles {
	t := ipc.timeout
	for i := 1; i < attempts && i < 4; i++ {
		t *= 2
	}
	return t
}

// armSendDeadline (re)arms the SendRec timeout of a blocked sender and
// makes sure the deadline index holds it.
func (k *Kernel) armSendDeadline(p *Process) {
	due := k.clock.Now() + k.ipc.retryTimeout(p.sendAttempts)
	p.sendDeadline = due
	if due < k.ipcNextDue {
		k.ipcNextDue = due
	}
	if !p.inDeadlines {
		p.inDeadlines = true
		d := k.ipc.deadlines
		i := sort.Search(len(d), func(i int) bool { return d[i].ep >= p.ep })
		k.ipc.deadlines = slices.Insert(d, i, p)
	}
}

// awaitsDeadline reports whether p is blocked on a SendRec whose
// deadline is armed and no reply has arrived yet.
func (p *Process) awaitsDeadline() bool {
	return p.state == stateSendRec && p.reply == nil && p.sendDeadline != 0
}

// senderStuck reports whether p's delivered-but-unanswered request can
// no longer be served: following the waits-for chain from p either
// reaches a destination that is gone for good (quarantined, or dead
// with no recovery pending), or closes a cycle of processes all parked
// in SendRec — none of them can run to serve the others, and parked
// processes only unpark through a reply, so the cycle is permanent
// unless the transport breaks it. Any chain member that is not parked
// (serving, runnable, or dead-awaiting-recovery) can still make
// progress, so the sender keeps waiting. The walk is bounded by the
// process count: exceeding it means the chain revisited a node, which
// is the same closed cycle.
func (ipc *ipcPlane) senderStuck(p *Process) bool {
	cur := p
	for i := 0; i <= len(ipc.k.order); i++ {
		dst := cur.waitFrom
		t := ipc.k.procs.get(dst)
		if t == nil || ipc.k.IsQuarantined(dst) ||
			(!t.Alive() && !ipc.k.RecoveryPending(dst)) {
			return true
		}
		if t.state != stateSendRec {
			return false
		}
		if t == p {
			return true
		}
		cur = t
	}
	return true
}

// handleSendTimeout resolves one expired SendRec deadline: redeliver
// the cached reply, re-arm for a delivered-but-slow request, or
// retransmit / dead-letter a lost one.
func (ipc *ipcPlane) handleSendTimeout(p *Process) {
	ipc.stats.Timeouts++
	dst := p.waitFrom
	seq := p.pendingReq.Seq
	if ps := ipc.pairs.get(dst, p.ep); seq != 0 && ps != nil {
		if ps.reply.seq == seq {
			// The reply exists but was lost in transit: redeliver it
			// (reliably — the cache models the server-side send buffer).
			ipc.stats.Sent++
			ipc.stats.ReplyRedeliveries++
			p.sendDeadline = 0
			ipc.deliverReply(&ps.reply.msg)
			return
		}
		if ps.seen.has(seq) {
			// Delivered and still being served (slow server, postponed
			// reply): keep waiting without consuming a retry. Long waits
			// are legitimate — blocking process waits, writers parked on a
			// full pipe — so the grace is unbounded, except when the
			// waits-for graph proves the request can never be served: a
			// crash can strand a cross-server transaction in a closed
			// cycle of senders all parked in SendRec, which no reply will
			// ever resolve. After ipcRetryMax quiet periods every further
			// timeout probes for such a cycle (or a destination that died
			// for good) and breaks it with a dead-letter ETIMEDOUT, so the
			// failure stays locally recoverable instead of hanging the run
			// to its cycle limit.
			if p.sendRearms < ipcRetryMax || !ipc.senderStuck(p) {
				p.sendRearms++
				ipc.k.armSendDeadline(p)
				return
			}
			ipc.stats.DeadLetters++
			p.sendDeadline = 0
			p.setReply(&Message{From: dst, To: p.ep, Errno: ETIMEDOUT})
			ipc.k.markSched(p)
			return
		}
	}
	// Lost in transit.
	if p.sendAttempts > ipcRetryMax {
		ipc.stats.DeadLetters++
		p.sendDeadline = 0
		p.setReply(&Message{From: dst, To: p.ep, Errno: ETIMEDOUT})
		ipc.k.markSched(p)
		return
	}
	target := ipc.k.procs.get(dst)
	if target == nil || ipc.k.IsQuarantined(dst) ||
		(!target.Alive() && !ipc.k.RecoveryPending(dst)) {
		p.sendDeadline = 0
		p.setReply(&Message{From: dst, To: p.ep, Errno: EDEADSRCDST})
		ipc.k.markSched(p)
		return
	}
	p.sendAttempts++
	ipc.stats.Retransmits++
	ipc.xmit(&p.pendingReq, p.sendAttempts)
	ipc.k.armSendDeadline(p)
}

// release resolves one due delay-queue entry: deliver a held message,
// or push an ARQ entry back through a fresh transmission roll.
func (ipc *ipcPlane) release(h *heldMsg) {
	switch {
	case h.retransmit:
		ipc.stats.PendingARQ--
		ipc.stats.Retransmits++
		ipc.xmit(&h.msg, h.attempts+1)
	case h.reply:
		ipc.stats.PendingDelayed--
		ipc.deliverReply(&h.msg)
	default:
		ipc.stats.PendingDelayed--
		ipc.deliver(&h.msg, false)
	}
}

// fireDueIPC processes every due IPC event: delay-queue releases and
// SendRec timeouts, in deterministic order (queue order, then endpoint
// order). It recomputes the next-event horizon afterwards.
func (k *Kernel) fireDueIPC() {
	ipc := k.ipc
	if ipc == nil {
		k.ipcNextDue = ipcNone
		return
	}
	now := k.clock.Now()
	if len(ipc.held) > 0 {
		// Split due entries out before releasing any: a release can
		// append new holds (ARQ re-drop), which must not be lost.
		due := ipc.releasing[:0]
		kept := ipc.held[:0]
		for _, h := range ipc.held {
			if h.due > now {
				kept = append(kept, h)
			} else {
				due = append(due, h)
			}
		}
		ipc.held = kept
		for i := range due {
			ipc.release(&due[i])
		}
		clear(due) // the scratch keeps no payload alive
		ipc.releasing = due[:0]
	}
	ipc.timeOutSenders(now)
	k.ipcNextDue = ipc.nextDue()
	if k.tracer != nil {
		k.tracer("ipc-due: t=%d next=%d", now, k.ipcNextDue)
	}
}

// timeOutSenders handles every expired SendRec deadline in endpoint
// order, the order of k.order, and drops from the index the senders
// that are no longer armed or no longer alive. Handling one timeout arms
// no deadline but the sender's own, which the index already holds, so
// the index cannot change under the walk.
func (ipc *ipcPlane) timeOutSenders(now sim.Cycles) {
	kept := ipc.deadlines[:0]
	for _, p := range ipc.deadlines {
		if p.sendDeadline == 0 || !p.Alive() {
			p.inDeadlines = false
			continue
		}
		kept = append(kept, p)
		if p.awaitsDeadline() && p.sendDeadline <= now {
			if ipc.k.tracer != nil {
				ipc.k.tracer("timeout: %s(%d) -> %d attempt=%d", p.name, p.ep, p.waitFrom, p.sendAttempts)
			}
			ipc.handleSendTimeout(p)
		}
	}
	clear(ipc.deadlines[len(kept):])
	ipc.deadlines = kept
}

// nextDue returns the earliest pending IPC event.
func (ipc *ipcPlane) nextDue() sim.Cycles {
	next := ipcNone
	for _, h := range ipc.held {
		if h.due < next {
			next = h.due
		}
	}
	for _, p := range ipc.deadlines {
		if p.awaitsDeadline() && p.sendDeadline < next {
			next = p.sendDeadline
		}
	}
	return next
}
