package kernel

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// --- seqWindow (anti-replay dedup) ---

func TestSeqWindowInOrder(t *testing.T) {
	var w seqWindow
	for seq := uint32(1); seq <= 100; seq++ {
		if w.mark(seq) {
			t.Fatalf("seq %d flagged duplicate on first delivery", seq)
		}
		if !w.has(seq) {
			t.Fatalf("seq %d not recorded after mark", seq)
		}
	}
	if !w.mark(100) || !w.mark(57) {
		t.Fatal("redelivery of a marked sequence not flagged duplicate")
	}
}

func TestSeqWindowOutOfOrder(t *testing.T) {
	var w seqWindow
	// Seq 2 overtakes seq 1 (reorder/delay fault): the late first
	// delivery of 1 must NOT be treated as a duplicate.
	if w.mark(2) {
		t.Fatal("seq 2 flagged duplicate")
	}
	if w.has(1) {
		t.Fatal("seq 1 reported delivered before any delivery")
	}
	if w.mark(1) {
		t.Fatal("late first delivery of seq 1 flagged duplicate")
	}
	if !w.mark(1) || !w.mark(2) {
		t.Fatal("second deliveries not flagged duplicate")
	}
}

func TestSeqWindowAncientIsDuplicate(t *testing.T) {
	var w seqWindow
	w.mark(1)
	w.mark(200)
	// 136 sequences behind top: outside the 64-entry window, assumed
	// already handled.
	if !w.mark(100) {
		t.Fatal("far-behind sequence not flagged duplicate")
	}
	if !w.has(100) {
		t.Fatal("far-behind sequence not reported delivered")
	}
}

// --- test fixtures ---

const ipcTestTimeout sim.Cycles = 20_000

// recorder is a sink server that records the A register of every
// type-100 message and answers type-101 flush requests with the count.
type recorder struct {
	got []int64
}

func (r *recorder) body(ctx *Context) {
	for {
		m := ctx.Receive()
		ctx.Tick(10)
		switch m.Type {
		case 100:
			r.got = append(r.got, m.A)
			if m.NeedsReply {
				ctx.Reply(m.From, Message{Type: 100, A: m.A + 1})
			}
		case 101:
			ctx.Reply(m.From, Message{Type: 101, A: int64(len(r.got))})
		default:
			if m.NeedsReply {
				ctx.ReplyErr(m.From, ENOSYS)
			}
		}
	}
}

// --- a fault-free plane is invisible ---

// With no fault rate and nothing armed, the plane's sequencing, checksums
// and deadlines change nothing a run observes: the result, the counters
// and every delivery equal a machine without a plane.
func TestIPCZeroConfigBitIdenticalToNoPlane(t *testing.T) {
	run := func(plane bool) (Result, map[string]uint64, []int64) {
		k := newTestKernel()
		if plane {
			k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 7)
		}
		rec := &recorder{}
		k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
		root := k.SpawnUser("client", func(ctx *Context) {
			for i := int64(0); i < 5; i++ {
				if r := ctx.SendRec(EpDS, Message{Type: 100, A: i}); r.Errno != OK {
					t.Errorf("SendRec errno = %v", r.Errno)
				}
			}
			ctx.Send(EpDS, Message{Type: 100, A: 99})
			ctx.SendRec(EpDS, Message{Type: 101})
		})
		k.SetRootProcess(root.Endpoint())
		res := k.Run(testLimit)
		return res, k.Counters().Snapshot(), rec.got
	}
	offRes, offCtr, offGot := run(false)
	onRes, onCtr, onGot := run(true)
	if offRes != onRes {
		t.Errorf("result diverged: no-plane %+v, zero-config plane %+v", offRes, onRes)
	}
	if !reflect.DeepEqual(offCtr, onCtr) {
		t.Errorf("counters diverged:\nno-plane: %v\nplane:    %v", offCtr, onCtr)
	}
	if !reflect.DeepEqual(offGot, onGot) {
		t.Errorf("deliveries diverged: no-plane %v, plane %v", offGot, onGot)
	}
}

// --- armed one-shot fates ---

func TestIPCArmedDropOnSendRecRecoveredByRetransmit(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	var reply Message
	root := k.SpawnUser("client", func(ctx *Context) {
		reply = ctx.SendRec(EpDS, Message{Type: 100, A: 41})
	})
	k.ArmIPCFault(root.Endpoint(), IPCDrop)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if reply.Errno != OK || reply.A != 42 {
		t.Fatalf("reply = %+v, want OK/42 via retransmission", reply)
	}
	st, _ := k.IPCStats()
	if st.Dropped != 1 || st.Timeouts == 0 || st.Retransmits != 1 {
		t.Fatalf("stats = %+v, want Dropped=1 Timeouts>0 Retransmits=1", st)
	}
}

func TestIPCArmedDupSuppressedByDedup(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Send(EpDS, Message{Type: 100, A: 5})
		ctx.SendRec(EpDS, Message{Type: 101})
	})
	k.ArmIPCFault(root.Endpoint(), IPCDup)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !reflect.DeepEqual(rec.got, []int64{5}) {
		t.Fatalf("sink got %v, want [5] (duplicate suppressed)", rec.got)
	}
	st, _ := k.IPCStats()
	if st.Duplicated != 1 || st.DupSuppressed != 1 {
		t.Fatalf("stats = %+v, want Duplicated=1 DupSuppressed=1", st)
	}
}

func TestIPCArmedDelayHoldsThenDelivers(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	var atFlush, atEnd int64
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Send(EpDS, Message{Type: 100, A: 9})
		// The flush overtakes the held message: the sink has seen
		// nothing yet.
		atFlush = ctx.SendRec(EpDS, Message{Type: 101}).A
		ctx.SetAlarm(50_000)
		ctx.Receive() // MsgAlarm, past the delay release
		atEnd = ctx.SendRec(EpDS, Message{Type: 101}).A
	})
	k.ArmIPCFault(root.Endpoint(), IPCDelay)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if atFlush != 0 || atEnd != 1 {
		t.Fatalf("sink count at flush = %d (want 0), at end = %d (want 1)", atFlush, atEnd)
	}
	st, _ := k.IPCStats()
	if st.Delayed != 1 || st.PendingDelayed != 0 {
		t.Fatalf("stats = %+v, want Delayed=1 PendingDelayed drained", st)
	}
}

func TestIPCArmedReorderJumpsTheQueue(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Send(EpDS, Message{Type: 100, A: 1})
		ctx.Kernel().ArmIPCFault(ctx.Endpoint(), IPCReorder)
		ctx.Send(EpDS, Message{Type: 100, A: 2})
		ctx.SendRec(EpDS, Message{Type: 101})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !reflect.DeepEqual(rec.got, []int64{2, 1}) {
		t.Fatalf("sink got %v, want [2 1] (second message reordered ahead)", rec.got)
	}
	st, _ := k.IPCStats()
	if st.Reordered != 1 {
		t.Fatalf("stats = %+v, want Reordered=1", st)
	}
}

func TestIPCArmedCorruptDetectedAndRecoveredWithReliability(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Send(EpDS, Message{Type: 100, A: 5})
		ctx.SetAlarm(100_000) // past the ARQ retransmission
		ctx.Receive()
		ctx.SendRec(EpDS, Message{Type: 101})
	})
	k.ArmIPCFault(root.Endpoint(), IPCCorrupt)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !reflect.DeepEqual(rec.got, []int64{5}) {
		t.Fatalf("sink got %v, want the clean [5] exactly once", rec.got)
	}
	st, _ := k.IPCStats()
	if st.CorruptInjected != 1 || st.CorruptDropped != 1 || st.Retransmits != 1 {
		t.Fatalf("stats = %+v, want CorruptInjected=1 CorruptDropped=1 Retransmits=1", st)
	}
}

// A request corrupted on its first transmission and again on its
// retransmission still reaches the server clean, exactly once: xmit
// corrupts a copy, and the sender's pendingReq, which every
// retransmission sends, stays as prepared.
func TestIPCCorruptedTwiceDeliveredCleanOnce(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	var reply Message
	root := k.SpawnUser("client", func(ctx *Context) {
		reply = ctx.SendRec(EpDS, Message{Type: 100, A: 5})
	})
	client := root.Endpoint()
	k.ArmIPCFault(client, IPCCorrupt)
	// The tracer reports the first expired deadline just before the
	// retransmission it causes: arm the second corruption there.
	rearmed := false
	k.SetTracer(func(format string, _ ...any) {
		if !rearmed && strings.HasPrefix(format, "timeout:") {
			rearmed = true
			k.ArmIPCFault(client, IPCCorrupt)
		}
	})
	k.SetRootProcess(client)
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !reflect.DeepEqual(rec.got, []int64{5}) {
		t.Fatalf("sink got %v, want the clean [5] exactly once", rec.got)
	}
	if reply.Errno != OK || reply.A != 6 {
		t.Fatalf("reply = %+v, want the sink's answer to 5", reply)
	}
	st, _ := k.IPCStats()
	if st.CorruptInjected != 2 || st.CorruptDropped != 2 || st.Retransmits != 2 {
		t.Fatalf("stats = %+v, want CorruptInjected=2 CorruptDropped=2 Retransmits=2", st)
	}
}

// --- reliability-layer behaviour ---

func TestIPCRetryExhaustionDeadLetters(t *testing.T) {
	k := newTestKernel()
	// Total loss: every transmission is dropped, so the retry budget
	// runs out and the sender is unblocked with a synthetic timeout.
	k.SetIPCFaultPlane(IPCFaultConfig{DropBP: 10000},
		IPCReliability{TimeoutCycles: ipcTestTimeout}, 3)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	var reply Message
	root := k.SpawnUser("client", func(ctx *Context) {
		reply = ctx.SendRec(EpDS, Message{Type: 100, A: 1})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if reply.Errno != ETIMEDOUT {
		t.Fatalf("reply errno = %v, want ETIMEDOUT", reply.Errno)
	}
	st, _ := k.IPCStats()
	if st.DeadLetters != 1 || st.Retransmits != ipcRetryMax {
		t.Fatalf("stats = %+v, want DeadLetters=1 Retransmits=%d", st, ipcRetryMax)
	}
}

func TestIPCSlowServerFreeRearmConsumesNoRetry(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{}, IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	var waiting bool
	k.AddServer(EpDS, "slow", func(ctx *Context) {
		for {
			m := ctx.Receive()
			// Service far longer than the sender's timeout: the
			// deadline fires repeatedly but must neither retransmit
			// nor dead-letter a request that was delivered. While the
			// sender is parked, the reliability layer vouches for it.
			waiting = ctx.Kernel().IPCWaiting(m.From)
			ctx.Tick(40 * ipcTestTimeout)
			ctx.Reply(m.From, Message{A: m.A + 1})
		}
	}, ServerConfig{})
	var reply Message
	root := k.SpawnUser("client", func(ctx *Context) {
		reply = ctx.SendRec(EpDS, Message{Type: 100, A: 41})
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if reply.Errno != OK || reply.A != 42 {
		t.Fatalf("reply = %+v, want OK/42 after the slow service", reply)
	}
	if !waiting {
		t.Fatal("IPCWaiting(sender) = false during service, want true (hang-detector exemption)")
	}
	st, _ := k.IPCStats()
	if st.Timeouts == 0 || st.Retransmits != 0 || st.DeadLetters != 0 {
		t.Fatalf("stats = %+v, want Timeouts>0 Retransmits=0 DeadLetters=0", st)
	}
}

func TestIPCDeadlockCycleBrokenByDeadLetter(t *testing.T) {
	k := newTestKernel()
	k.SetIPCFaultPlane(IPCFaultConfig{},
		IPCReliability{TimeoutCycles: ipcTestTimeout}, 1)
	// A and B each, on their trigger message, issue a blocking request
	// to the other: once both are parked the waits-for graph is a
	// closed cycle no reply can resolve. The transport must break it.
	var aErr, bErr Errno
	k.AddServer(EpVFS, "a", func(ctx *Context) {
		for {
			m := ctx.Receive()
			ctx.Tick(10)
			if m.Type == 200 {
				aErr = ctx.SendRec(EpDS, Message{Type: 100}).Errno
			} else if m.NeedsReply {
				ctx.Reply(m.From, Message{})
			}
		}
	}, ServerConfig{})
	k.AddServer(EpDS, "b", func(ctx *Context) {
		for {
			m := ctx.Receive()
			ctx.Tick(10)
			if m.Type == 200 {
				bErr = ctx.SendRec(EpVFS, Message{Type: 100}).Errno
			} else if m.NeedsReply {
				ctx.Reply(m.From, Message{})
			}
		}
	}, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.Send(EpVFS, Message{Type: 200})
		ctx.Send(EpDS, Message{Type: 200})
		ctx.SetAlarm(400_000)
		ctx.Receive() // wait out the deadlock resolution
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s) — deadlock not broken", res.Outcome, res.Reason)
	}
	st, _ := k.IPCStats()
	if st.DeadLetters == 0 {
		t.Fatalf("stats = %+v, want at least one dead-lettered request", st)
	}
	if aErr != ETIMEDOUT && bErr != ETIMEDOUT {
		t.Fatalf("neither cycle member timed out: a=%v b=%v", aErr, bErr)
	}
}

// --- conservation and determinism ---

func ipcStressRun(t *testing.T, seed uint64) (IPCStats, []int64) {
	t.Helper()
	k := newTestKernel()
	k.SetIPCFaultPlane(
		IPCFaultConfig{DropBP: 200, DupBP: 200, DelayBP: 200, ReorderBP: 100, CorruptBP: 200},
		IPCReliability{TimeoutCycles: ipcTestTimeout}, seed)
	rec := &recorder{}
	k.AddServer(EpDS, "sink", rec.body, ServerConfig{})
	root := k.SpawnUser("client", func(ctx *Context) {
		for i := int64(0); i < 300; i++ {
			r := ctx.SendRec(EpDS, Message{Type: 100, A: i})
			if r.Errno != OK || r.A != i+1 {
				t.Errorf("request %d: reply %+v, want OK/%d", i, r, i+1)
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	st, _ := k.IPCStats()
	return st, rec.got
}

func TestIPCConservationLedgerUnderStress(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		st, _ := ipcStressRun(t, seed)
		if st.Sent != st.Delivered+st.Dropped+st.DupSuppressed+st.PendingDelayed {
			t.Errorf("seed %d: ledger unbalanced: %+v", seed, st)
		}
		if st.Dropped+st.Duplicated+st.Delayed+st.CorruptInjected == 0 {
			t.Errorf("seed %d: no faults fired — vacuous stress run", seed)
		}
	}
}

func TestIPCFaultStreamDeterministic(t *testing.T) {
	st1, got1 := ipcStressRun(t, 42)
	st2, got2 := ipcStressRun(t, 42)
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("same seed, different ledgers:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(got1, got2) {
		t.Errorf("same seed, different delivery streams")
	}
}

// --- config validation ---

func TestIPCFaultConfigValidate(t *testing.T) {
	bad := []IPCFaultConfig{
		{DropBP: -1},
		{DupBP: 10001},
		{DropBP: 6000, CorruptBP: 6000},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := []IPCFaultConfig{
		{},
		{DropBP: 50, DupBP: 50, DelayBP: 50, ReorderBP: 50, CorruptBP: 50},
		{DropBP: 10000},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}
