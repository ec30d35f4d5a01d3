package kernel

// This file is the kernel half of the elision plane: hashing a machine
// parked at a quiescence barrier into a state fingerprint that can be
// compared against a pathfinder rung, and deciding whether the parked
// machine is at an elision-grade quiescent point at all.
//
// The fingerprint is its own walk over the live structs, not a visitor
// over the image's field lists (image.go): the wedge certificate hashes
// machines no image could hold — processes blocked in SendRec, sends in
// flight — and what it hashes is canonicalised rather than copied
// (alarms by owner and count or time left, inboxes less what MsgSkip
// names). It covers semantic state only and deliberately leaves out what
// differs between a recovered machine and the fault-free pathfinder
// without affecting future behaviour: the absolute clock, counters and
// transport statistics, the alarm heap's sequence numbers, and scheduling
// *phase* — the position within the preemption quantum and the phase of
// the Recovery Server's heartbeat, which re-arm relative to their last
// event and so stay skewed by a recovery's cost forever while what they
// produce is unchanged. Field by field, what is hashed, what is not and
// why is the table fingerprintFields in fingerprint_test.go, which a
// test holds against the structs: an unclassified new field fails it.
// The -noelide oracle covers the residual risk of the exclusions.

import (
	"sort"

	"repro/internal/sim"
)

// MsgSkip reports whether a queued inbox message must be excluded from
// the state fingerprint. server says whose inbox it is: heartbeat-phase
// traffic (RS pings, alarm ticks) is only ever skipped at servers; user
// inboxes are always hashed in full. The predicate is supplied by the
// boot layer — the kernel does not know the server protocols.
type MsgSkip func(m Message, server bool) bool

// fpState is the kernel's view of the state hash: sim.Hash plus the
// framing of its field kinds (strings and blobs are length-prefixed).
type fpState struct{ sim.Hash }

func (f *fpState) i64(v int64) { f.U64(uint64(v)) }

func (f *fpState) bool(v bool) {
	if v {
		f.U64(1)
	} else {
		f.U64(0)
	}
}

func (f *fpState) str(s string) {
	f.U64(uint64(len(s)))
	f.Text(s)
}

func (f *fpState) blob(b []byte) {
	f.U64(uint64(len(b)))
	f.Bytes(b)
}

func (f *fpState) msg(m Message) {
	f.i64(int64(m.Type))
	f.i64(int64(m.From))
	f.i64(int64(m.To))
	f.bool(m.NeedsReply)
	f.i64(int64(m.Errno))
	f.i64(m.A)
	f.i64(m.B)
	f.i64(m.C)
	f.i64(m.D)
	f.U64(uint64(m.Seq))
	f.U64(uint64(m.Sum))
	f.str(m.Str)
	f.str(m.Str2)
	f.blob(m.Bytes)
	// Aux carries read-only process bodies and argv slices that cannot
	// be hashed structurally; presence alone is folded in. A message
	// queued at a quiescence barrier with a differing Aux payload but an
	// otherwise identical envelope is out of the fingerprint's reach —
	// the -noelide oracle covers that residual risk.
	f.bool(m.Aux != nil)
}

// StateFingerprint hashes the machine's semantic kernel state. Two
// machines that fingerprint equal (and whose stores and disks hash
// equal) will, barring hash collisions, produce identical executions
// from this point given identical inputs and RNG states.
func (k *Kernel) StateFingerprint(skip MsgSkip) uint64 {
	f := fpState{sim.NewHash()}
	f.U64(uint64(k.rrNext))
	f.i64(int64(k.nextUserEp))
	f.i64(int64(k.rootEp))
	for _, ep := range k.order {
		p := k.procs.get(ep)
		if p == nil {
			continue
		}
		if !p.Alive() {
			// Dead processes are inert placeholders: they can never run
			// again, and their residual register-like fields differ
			// between a machine that executed to this point and a fork
			// rebuilt from an image. Only their existence is hashed.
			f.i64(int64(ep))
			f.U64(0xDEAD)
			continue
		}
		f.i64(int64(ep))
		f.U64(uint64(p.state))
		f.i64(int64(p.curSender))
		f.bool(p.curNeedsReply)
		f.i64(int64(p.waitFrom))
		f.U64(uint64(p.sendAttempts))
		f.U64(uint64(p.sendRearms))
		f.bool(p.reply != nil)
		f.bool(p.sendDeadline != 0)
		for i := p.inboxHead; i < len(p.inbox); i++ {
			m := p.inbox[i]
			if skip != nil && skip(m, p.isServer) {
				continue
			}
			f.msg(m)
		}
		// Per-process terminator so inbox contents cannot bleed into the
		// next process's fields.
		f.U64(0x50C1A1)
	}
	k.fingerprintAlarms(&f)
	if k.ipc != nil {
		f.U64(1)
		k.ipc.fingerprint(&f)
	} else {
		f.U64(0)
	}
	return f.Sum()
}

// fingerprintAlarms folds the pending alarm set in canonical form:
// structural (owner, count) for server alarms, (owner, relative
// deadline) sorted for user alarms. Stale alarms of dead processes are
// skipped — the delivery path prunes them without effect.
func (k *Kernel) fingerprintAlarms(f *fpState) {
	now := k.clock.Now()
	var serverCounts map[Endpoint]int
	type userAlarm struct {
		ep  Endpoint
		rel sim.Cycles
	}
	var users []userAlarm
	for _, a := range k.alarms {
		p := k.procs.get(a.ep)
		if p == nil || !p.Alive() {
			continue
		}
		if a.ep < EpUserBase {
			if serverCounts == nil {
				serverCounts = make(map[Endpoint]int, 4)
			}
			serverCounts[a.ep]++
			continue
		}
		rel := sim.Cycles(0)
		if a.deadline > now {
			rel = a.deadline - now
		}
		users = append(users, userAlarm{ep: a.ep, rel: rel})
	}
	for _, ep := range k.order {
		if n := serverCounts[ep]; n > 0 {
			f.i64(int64(ep))
			f.U64(uint64(n))
		}
	}
	f.U64(0xA1A2)
	sort.Slice(users, func(i, j int) bool {
		if users[i].ep != users[j].ep {
			return users[i].ep < users[j].ep
		}
		return users[i].rel < users[j].rel
	})
	for _, a := range users {
		f.i64(int64(a.ep))
		f.U64(uint64(a.rel))
	}
	f.U64(0xA1A3)
}

// fingerprint folds the reliability-layer bookkeeping — sequence
// cursors, anti-replay windows, in-service sequences and cached replies,
// each a walk over the pairs whose record holds it (pairFields) in
// (dst, src) order. Transport statistics are excluded.
func (ipc *ipcPlane) fingerprint(f *fpState) {
	hash := [len(pairFields)]func(*pairState){
		func(s *pairState) { f.U64(uint64(s.nextSeq)) },
		func(s *pairState) {
			f.U64(uint64(s.seen.top))
			f.U64(s.seen.bits)
		},
		func(s *pairState) { f.U64(uint64(s.svcSeq)) },
		func(s *pairState) {
			f.U64(uint64(s.reply.seq))
			f.msg(s.reply.msg)
		},
	}
	for i, end := range [...]uint64{0xB1B1, 0xB1B2, 0xB1B1, 0xB1B3} {
		ipc.pairs.holding(pairFields[i], func(dst, src Endpoint, ps *pairState) {
			f.i64(int64(dst))
			f.i64(int64(src))
			hash[i](ps)
		})
		f.U64(end)
	}
	f.U64(uint64(len(ipc.held)))
	f.U64(uint64(len(ipc.armed)))
}

// RNGState returns the machine root RNG's state word (see
// sim.RNG.State): equality across two points of one seeded run proves
// zero draws were taken between them.
func (k *Kernel) RNGState() uint64 { return k.rng.State() }

// IPCRNGState returns the IPC fault plane's RNG state, and false when
// the machine has no plane.
func (k *Kernel) IPCRNGState() (uint64, bool) {
	if k.ipc == nil {
		return 0, false
	}
	return k.ipc.rng.State(), true
}
