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
// The configuration records (CostModel, IPCFaultConfig) have lists too,
// in the plain form of their declaration: every field in order, an
// unsigned kind as a varint.

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/wire"
)

// imageVersion guards the frame layout; bump on any codec change.
const imageVersion = 1

// Code walks the machine image through c: the encoder and the decoder in
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
	// Format v1 has room for a transport plane here, behind a presence
	// byte. An image carries none: the byte is always false, and a
	// machine with a plane neither encodes nor decodes.
	hasPlane := img.ipc != nil
	if c.Bool(&hasPlane); hasPlane {
		c.Fail(fmt.Errorf("kernel: machine image with a transport plane: images do not carry one"))
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
	f.delayCycles.Code(c)
}
