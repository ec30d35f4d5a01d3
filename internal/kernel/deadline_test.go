package kernel

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// scanDueSenders is how fireDueIPC found expired SendRec deadlines before
// the plane indexed them: a walk over the whole of k.order — every
// process the machine ever spawned, reaped children included — in
// endpoint order.
func scanDueSenders(k *Kernel, now sim.Cycles) []Endpoint {
	var due []Endpoint
	for _, ep := range k.order {
		p := k.procs.get(ep)
		if p == nil || p.state != stateSendRec || p.reply != nil ||
			p.sendDeadline == 0 || p.sendDeadline > now {
			continue
		}
		due = append(due, ep)
	}
	return due
}

// scanNextDue is the matching whole-table horizon: the earliest held
// message or armed deadline.
func scanNextDue(k *Kernel) sim.Cycles {
	next := ipcNone
	for _, h := range k.ipc.held {
		next = min(next, h.due)
	}
	for _, ep := range k.order {
		p := k.procs.get(ep)
		if p == nil || p.state != stateSendRec || p.reply != nil || p.sendDeadline == 0 {
			continue
		}
		next = min(next, p.sendDeadline)
	}
	return next
}

// deadlineOracle holds every fireDueIPC of a machine against the scans,
// through the tracer: "timeout:" names each sender as it is timed out,
// "ipc-due:" closes the call with the recomputed horizon.
type deadlineOracle struct {
	t *testing.T
	k *Kernel
	// want is what the scan visits in the call under way, taken at its
	// first timeout — before any is handled, so exactly the scan's view.
	want    []Endpoint
	visited int
	// Totals, so a run that never exercised the index fails as vacuous:
	// multi counts the calls that timed out more than one sender.
	calls, timeouts, multi int
}

func (o *deadlineOracle) trace(format string, args ...any) {
	k, now := o.k, o.k.clock.Now()
	switch {
	case strings.HasPrefix(format, "timeout:"):
		if o.visited == 0 {
			o.want = scanDueSenders(k, now)
		}
		ep := args[1].(Endpoint)
		if o.visited >= len(o.want) || o.want[o.visited] != ep {
			o.t.Fatalf("t=%d: timeout #%d is endpoint %d; the scan visits %v", now, o.visited, ep, o.want)
		}
		o.visited++
		o.timeouts++
	case strings.HasPrefix(format, "ipc-due:"):
		if o.visited != len(o.want) {
			o.t.Fatalf("t=%d: %d senders timed out; the scan visits %v", now, o.visited, o.want)
		}
		// Every sender the call handled is re-armed into the future or
		// answered, and nothing else moves a deadline: a sender the index
		// missed is still due here.
		if missed := scanDueSenders(k, now); len(missed) > 0 {
			o.t.Fatalf("t=%d: senders %v still due after fireDueIPC", now, missed)
		}
		if got, want := args[1].(sim.Cycles), scanNextDue(k); got != want {
			o.t.Fatalf("t=%d: next IPC event %d from the index, %d from the scan", now, got, want)
		}
		if o.visited > 1 {
			o.multi++
		}
		o.want, o.visited = nil, 0
		o.calls++
	}
}

// deadlineMachine builds a cold machine under background transport
// faults with the reliability layer on: four servers that call each
// other, stall past the sender timeout and crash (recovered by
// replacement with the in-flight request error-virtualized, now and then
// quarantined), and a root that spawns short-lived children, execs and
// kills them while they wait on a reply, and leaves every reaped one in
// the table.
func deadlineMachine(seed uint64) *Kernel {
	rng := sim.NewRNG(seed)
	k := New(DefaultCostModel(), seed)
	k.SetIPCFaultPlane(
		IPCFaultConfig{DropBP: 300, DupBP: 200, DelayBP: 400, ReorderBP: 100, CorruptBP: 200},
		IPCReliability{TimeoutCycles: ipcTestTimeout}, seed)
	servers := []Endpoint{EpVM, EpVFS, EpDS, EpDriver}
	var server func(self Endpoint) Body
	server = func(self Endpoint) Body {
		return func(ctx *Context) {
			for {
				m := ctx.Receive()
				if m.Type == MsgAlarm {
					continue
				}
				ctx.Tick(sim.Cycles(10 + rng.Intn(200)))
				switch r := rng.Intn(100); {
				case r < 3:
					ctx.Crash("injected")
				case r < 20:
					ctx.SendRec(servers[rng.Intn(len(servers))], Message{Type: 100})
				case r < 30:
					ctx.Tick(2 * ipcTestTimeout)
				}
				if m.NeedsReply {
					ctx.Reply(m.From, Message{Type: 100, A: m.A + 1})
				}
			}
		}
	}
	for _, ep := range servers {
		k.AddServer(ep, "srv", server(ep), ServerConfig{})
	}
	k.SetCrashHandler(func(info CrashInfo) error {
		if info.Victim >= EpUserBase {
			return nil
		}
		if rng.Intn(10) == 0 {
			return k.QuarantineProcess(info.Victim, "gave up")
		}
		if _, err := k.ReplaceProcess(info.Victim, info.Name, server(info.Victim), ServerConfig{}); err != nil {
			return err
		}
		if info.CurNeedsReply {
			k.DeliverReply(info.Victim, info.CurSender, Message{Errno: ECRASH})
		}
		return nil
	})
	child := func(ctx *Context) {
		for n := 3 + rng.Intn(8); n > 0; n-- {
			dst := servers[rng.Intn(len(servers))]
			switch rng.Intn(6) {
			case 0:
				ctx.Send(dst, Message{Type: 100})
			case 1:
				ctx.SetAlarm(sim.Cycles(rng.Intn(int(ipcTestTimeout))))
				ctx.Receive()
			default:
				ctx.SendRec(dst, Message{Type: 100, A: int64(n)})
			}
		}
	}
	var kids []Endpoint
	root := k.SpawnUser("root", func(ctx *Context) {
		for round := 0; round < 40; round++ {
			if rng.Intn(2) == 0 {
				kids = append(kids, k.SpawnUser("child", child).Endpoint())
			}
			// Exec or kill a child parked on a reply: its deadline is armed.
			for _, ep := range kids {
				p := k.procs.get(ep)
				if !p.Alive() || p.state != stateSendRec || rng.Intn(4) != 0 {
					continue
				}
				if rng.Intn(2) == 0 {
					k.ReplaceUserProcess(ep, "exec", child)
				} else {
					k.TerminateProcess(ep)
				}
			}
			ctx.SetAlarm(sim.Cycles(rng.Intn(int(2 * ipcTestTimeout))))
			ctx.Receive()
		}
	})
	k.SetRootProcess(root.Endpoint())
	return k
}

// The deadline index finds what the whole-table scan found, in the
// scan's order, at every fireDueIPC of randomized machines.
func TestDeadlineIndexMatchesScan(t *testing.T) {
	var calls, timeouts, multi, reaped int
	for seed := uint64(1); seed <= 24; seed++ {
		k := deadlineMachine(seed)
		o := &deadlineOracle{t: t, k: k}
		k.SetTracer(o.trace)
		if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
			t.Fatalf("seed %d: outcome %v (%s)", seed, res.Outcome, res.Reason)
		}
		calls += o.calls
		timeouts += o.timeouts
		multi += o.multi
		for _, ep := range k.order {
			if ep > k.rootEp && !k.procs.get(ep).Alive() {
				reaped++
			}
		}
	}
	t.Logf("%d fireDueIPC calls (%d timing out several senders), %d timeouts, %d reaped children", calls, multi, timeouts, reaped)
	if calls < 1000 || multi < 10 || timeouts < 1000 || reaped < 200 {
		t.Fatalf("vacuous: %d fireDueIPC calls (%d timing out several senders), %d timeouts, %d reaped children", calls, multi, timeouts, reaped)
	}
}
