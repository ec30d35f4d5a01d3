package kernel

// On-disk form of MachineImage (the kernel frame of internal/image's
// container format). Every type has ONE field list, a function over a
// wire.Codec that writes the fields when the codec encodes and reads
// them when it decodes. The stream is deterministic: map entries go out
// in sorted key order, everything else in capture order.
//
// Message Aux payloads are the one open point: they are interface-typed
// and may carry process bodies (functions), which cannot cross a
// process boundary. Their codec is closed: nil and a []string argv
// serialize, and anything else fails the encode with a clear error — the
// caller degrades to in-memory forking or cold boots rather than
// persisting a lossy image.
//
// The configuration and statistics records (CostModel, IPCFaultConfig,
// IPCStats) have lists too, in the plain form of their declaration:
// every field in order, an unsigned kind as a varint.

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/wire"
)

// imageVersion guards the frame layout; bump on any codec change.
const imageVersion = 1

// Code walks the machine image through c: EncodeTo and the decoder in
// one. A decoding walk fills img, which must be empty.
func (img *MachineImage) Code(c *wire.Codec) {
	version := uint64(imageVersion)
	if c.Uvarint(&version); version != imageVersion {
		c.Fail(fmt.Errorf("kernel: machine image version %d, want %d", version, imageVersion))
	}
	wire.Fixed64(c, &img.now)
	wire.Int(c, &img.rrNext)
	wire.Int(c, &img.nextUserEp)
	wire.Int(c, &img.rootEp)
	wire.Slice(c, &img.alarms, codeAlarm)
	c.Uvarint(&img.alarmSeq)
	codeCounters(c, &img.counters)
	wire.Slice(c, &img.procs, img.codeProc)
	hasPlane := img.ipc != nil
	if c.Bool(&hasPlane); hasPlane {
		if c.Decoding() {
			img.ipc = new(planeState)
		}
		codePlane(c, img.ipc, img.lastEp(), len(img.procs))
	}
	wire.Fixed64(c, &img.ipcNextDue)
}

func codeAlarm(c *wire.Codec, a *alarm) {
	wire.Fixed64(c, &a.deadline)
	wire.Int(c, &a.ep)
	c.Uvarint(&a.seq)
}

// codeProc codes an entry in full, a dead one as the record it stands
// for; a decoded entry that is exactly that record comes out dead.
func (img *MachineImage) codeProc(c *wire.Codec, p *procImage) {
	wire.Int(c, &p.ep)
	c.Str(&p.name)
	if !c.Decoding() {
		codeRecord(c, img.record(p))
		return
	}
	var rec liveImage
	if codeRecord(c, &rec); rec.state != stateDead || rec.inbox != nil || rec.procRegs != (procRegs{}) {
		img.lives = append(img.lives, rec)
		p.live = int32(len(img.lives))
	}
}

// codeRecord codes what an entry holds past its endpoint and name.
func codeRecord(c *wire.Codec, rec *liveImage) {
	wire.Int(c, &rec.state)
	wire.Slice(c, &rec.inbox, codeMessage)
	wire.Fixed64(c, &rec.quantumUsed)
	wire.Int(c, &rec.curSender)
	c.Bool(&rec.curNeedsReply)
}

func codeMessage(c *wire.Codec, m *Message) {
	wire.Int(c, &m.Type)
	wire.Int(c, &m.From)
	wire.Int(c, &m.To)
	c.Bool(&m.NeedsReply)
	wire.Int(c, &m.Errno)
	wire.Int(c, &m.A)
	wire.Int(c, &m.B)
	wire.Int(c, &m.C)
	wire.Int(c, &m.D)
	c.Str(&m.Str)
	c.Str(&m.Str2)
	c.Blob(&m.Bytes)
	codeAux(c, &m.Aux)
	c.U32(&m.Seq)
	c.U32(&m.Sum)
}

// codeAux is the closed codec of a message's Aux payload: nil, or an
// argv under the tag []string. A process body fails the walk.
func codeAux(c *wire.Codec, p *any) { wire.Tagged(c, p, "[]string", wire.Elems[string]) }

// lastEp is the highest endpoint of the image's process table.
func (img *MachineImage) lastEp() Endpoint {
	last := EpNone
	for i := range img.procs {
		last = max(last, img.procs[i].ep)
	}
	return last
}

// pairField is one field of a pair record as the image lists it: set
// says whether a record holds it, code is its field list.
type pairField struct {
	set  func(*pairState) bool
	code func(*wire.Codec, *pairState)
}

// pairFields are the record's fields in the order the image lists them.
var pairFields = [...]pairField{
	{func(s *pairState) bool { return s.nextSeq != 0 }, func(c *wire.Codec, s *pairState) { c.U32(&s.nextSeq) }},
	{func(s *pairState) bool { return s.seen.top != 0 }, func(c *wire.Codec, s *pairState) {
		c.U32(&s.seen.top)
		wire.Fixed64(c, &s.seen.bits)
	}},
	{func(s *pairState) bool { return s.svcSeq != 0 }, func(c *wire.Codec, s *pairState) { c.U32(&s.svcSeq) }},
	{func(s *pairState) bool { return s.reply.seq != 0 }, func(c *wire.Codec, s *pairState) {
		c.U32(&s.reply.seq)
		codeMessage(c, &s.reply.msg)
	}},
}

// codePlane codes the plane's statistics, then its pair records as one
// list per field. A decoded image's pairs are bounded by its process
// table: last is the table's highest endpoint, procs its length. A valid
// table's endpoints lie below EpUserBase+procs (servers below
// EpUserBase, users dense from it), so that span pays for the rows.
func codePlane(c *wire.Codec, pl *planeState, last Endpoint, procs int) {
	pl.stats.Code(c)
	room := pairSlotsPerEntry * (int(EpUserBase) + procs)
	for _, f := range pairFields {
		codePairs(c, &pl.pairs, f, last, &room)
	}
}

// codeCounters writes the counter set name-keyed in sorted order.
// Slot IDs are per-process (registration order), so the image must not
// reference them: a trace recorded by one binary is replayed by
// another, and decoding resolves each name to the local slot. Decoding,
// the names must ascend strictly, as written (a repeated name would
// sum), and each must be one this binary registers.
func codeCounters(c *wire.Codec, p **sim.Counters) {
	var snap map[string]uint64
	var names []string
	if c.Decoding() {
		*p = sim.NewCounters()
	} else {
		snap = (*p).Snapshot()
		names = make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	var prev string
	for i, n := 0, c.Len(len(names)); i < n && c.Err() == nil; i++ {
		var name string
		var v uint64
		if !c.Decoding() {
			name, v = names[i], snap[names[i]]
		}
		c.Str(&name)
		c.Uvarint(&v)
		if c.Decoding() {
			if i > 0 && name <= prev {
				c.Fail(fmt.Errorf("kernel: image counter %q repeats or is out of order", name))
				return
			}
			prev = name
			id, ok := sim.LookupCounter(name)
			if !ok {
				c.Fail(fmt.Errorf("kernel: image counter %q is not registered", name))
				return
			}
			(*p).AddID(id, v)
		}
	}
}

// pairSlotsPerEntry bounds the table a decoded image may build. A row is
// as long as its highest source, so without a bound a few bytes per pair
// could claim a row the length of the process table for every process.
// Each endpoint the process table spans and each list entry pays for
// this many slots, rows and row slots alike. A live table's long rows
// are its few servers': the images of the test suite and the campaigns
// use at most 2 slots per endpoint and entry.
const pairSlotsPerEntry = 16

// holding calls visit for every pair whose record holds f, in (dst, src)
// order.
func (t pairTable) holding(f pairField, visit func(dst, src Endpoint, ps *pairState)) {
	for dst, row := range t {
		for src, ps := range row {
			if ps != nil && f.set(ps) {
				visit(Endpoint(dst), Endpoint(src), ps)
			}
		}
	}
}

// fits takes from room the slots at(dst, src) would add to the table,
// rows and row slots alike, and reports whether room held them. The
// endpoints are non-negative; each is compared before it is counted, so
// none near the top of the int range overflows the sum.
func (t pairTable) fits(dst, src Endpoint, room *int) bool {
	row := 0
	if int(dst) < len(t) {
		row = len(t[dst])
	} else if int(dst)-len(t) >= *room {
		return false
	} else {
		*room -= int(dst) - len(t) + 1
	}
	if int(src) < row {
		return true
	}
	if int(src)-row >= *room {
		return false
	}
	*room -= int(src) - row + 1
	return true
}

// codePairs codes one field of the pair records: the pairs whose record
// holds it, in (dst, src) order, each followed by the value. Decoding, a
// pair's record is made by the first list that names it and filled in
// by the later ones. A decoded pair must name endpoints up to last, and
// the row slots it adds come out of room, which each entry refills by
// pairSlotsPerEntry: both are checked before the table grows. The pairs
// must ascend strictly and each value must be set: a repeated pair, of
// which the last would win, one out of order or a zero value would not
// encode back to the bytes it was read from.
func codePairs(c *wire.Codec, t *pairTable, f pairField, last Endpoint, room *int) {
	if !c.Decoding() {
		n := 0
		t.holding(f, func(Endpoint, Endpoint, *pairState) { n++ })
		c.Len(n)
		t.holding(f, func(dst, src Endpoint, ps *pairState) {
			wire.Int(c, &dst)
			wire.Int(c, &src)
			f.code(c, ps)
		})
		return
	}
	var prevDst, prevSrc Endpoint
	for i, n := 0, c.Len(0); i < n && c.Err() == nil; i++ {
		var dst, src Endpoint
		wire.Int(c, &dst)
		wire.Int(c, &src)
		if dst < 0 || src < 0 || dst > last || src > last {
			c.Fail(fmt.Errorf("kernel: image transport pair (%d, %d) names an endpoint beyond the process table", dst, src))
			return
		}
		if i > 0 && (dst < prevDst || dst == prevDst && src <= prevSrc) {
			c.Fail(fmt.Errorf("kernel: image transport pair (%d, %d) repeats or is out of order", dst, src))
			return
		}
		prevDst, prevSrc = dst, src
		if *room += pairSlotsPerEntry; !t.fits(dst, src, room) {
			c.Fail(fmt.Errorf("kernel: image transport pair (%d, %d) outgrows the table its process table allows", dst, src))
			return
		}
		ps := t.at(dst, src)
		if f.code(c, ps); c.Err() == nil && !f.set(ps) {
			c.Fail(fmt.Errorf("kernel: image transport pair (%d, %d) holds a zero value", dst, src))
			return
		}
	}
}

// Code lists the cost model's fields.
func (m *CostModel) Code(c *wire.Codec) {
	wire.Uint(c, &m.MsgHop)
	wire.Uint(c, &m.Trap)
	c.Bool(&m.Monolithic)
	wire.Uint(c, &m.Quantum)
	wire.Uint(c, &m.ServerWorkScale)
}

// Code lists the fault rates' fields.
func (f *IPCFaultConfig) Code(c *wire.Codec) {
	wire.Int(c, &f.DropBP)
	wire.Int(c, &f.DupBP)
	wire.Int(c, &f.DelayBP)
	wire.Int(c, &f.ReorderBP)
	wire.Int(c, &f.CorruptBP)
	wire.Uint(c, &f.DelayCycles)
}

// Code lists the plane's counters.
func (s *IPCStats) Code(c *wire.Codec) {
	for _, p := range [...]*uint64{
		&s.Sent, &s.Delivered, &s.Dropped, &s.DupSuppressed, &s.PendingDelayed, &s.PendingARQ,
		&s.Duplicated, &s.Delayed, &s.Reordered, &s.CorruptInjected, &s.CorruptDropped,
		&s.Timeouts, &s.Retransmits, &s.ReplyRedeliveries, &s.DeadLetters, &s.StaleReplies,
	} {
		c.Uvarint(p)
	}
}
