package kernel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testStep is a Stepper over a function: every request whose type leaf
// accepts (every request, for a nil leaf) is a leaf of ticks ticks.
type testStep struct {
	serve func(ctx *Context, m Message)
	ticks sim.Cycles
	leaf  func(m *Message) bool
}

func (s *testStep) Step(ctx *Context, m Message) { s.serve(ctx, m) }

func (s *testStep) Leaf(m *Message) (sim.Cycles, bool) {
	return s.ticks, s.leaf == nil || s.leaf(m)
}

// loopOf is the body of a server with step s: the loop of s over Receive.
func loopOf(s Stepper) Body {
	return func(ctx *Context) {
		for {
			s.Step(ctx, ctx.Receive())
		}
	}
}

// parkedStepServer is parkedServer for a server with step s, registered
// by cfg: its first request starts its body, after which the server sits
// parked in Receive off the chain.
func parkedStepServer(k *Kernel, ep Endpoint, name string, s Stepper, cfg ServerConfig) {
	p := k.AddServer(ep, name, loopOf(s), cfg)
	p.state = stateReceiving
	k.markSched(p)
}

// echoStep is echoServer's loop body.
func echoStep(ctx *Context, m Message) {
	ctx.Tick(10)
	ctx.Reply(m.From, Message{Type: m.Type, A: m.A + 1})
}

// A round trip to a server whose step serves it without suspending costs
// no coroutine switch: the caller runs the step and takes the pick the
// server's Receive makes, which is the caller. That holds for a server
// parked off the chain, whose first request still switches to start its
// body, and for one served in ping-pong below its caller on the chain
// (TestSendRecSwitchBudget's two switches). An armed point hook takes the
// switch path.
func TestLeafCallSwitchBudget(t *testing.T) {
	for _, parked := range []bool{true, false} {
		k := newTestKernel()
		echo := &testStep{serve: echoStep, ticks: 10}
		if parked {
			parkedStepServer(k, EpDS, "echo", echo, ServerConfig{Step: echo})
		} else {
			k.AddServer(EpDS, "echo", loopOf(echo), ServerConfig{Step: echo})
		}
		server := k.procs.get(EpDS)
		root := k.SpawnUser("client", func(ctx *Context) {
			call := func(i int) (switches, leafCalls uint64) {
				before, leaf := k.switches, k.leafCalls
				if r := ctx.SendRec(EpDS, Message{Type: 100, A: int64(i)}); r.A != int64(i)+1 {
					t.Errorf("round %d: reply A = %d, want %d", i, r.A, i+1)
				}
				return k.switches - before, k.leafCalls - leaf
			}
			if parked {
				if n, leaf := call(0); n != 2 || leaf != 0 {
					t.Errorf("first round trip to a parked server cost %d switches and %d leaf calls, want 2 and 0", n, leaf)
				}
			} else if !server.onChain {
				t.Error("the server, which ran first, is not below its client on the chain")
			}
			for i := 1; i < 4; i++ {
				if n, leaf := call(i); n != 0 || leaf != 1 {
					t.Errorf("parked %v, round %d: leaf round trip cost %d switches and %d leaf calls, want 0 and 1", parked, i, n, leaf)
				}
			}
			k.SetPointHook(func(Endpoint, string, string) {}, "elsewhere")
			if n, leaf := call(4); n != 2 || leaf != 0 {
				t.Errorf("parked %v: round trip under an armed point hook cost %d switches and %d leaf calls, want 2 and 0", parked, n, leaf)
			}
		})
		k.SetRootProcess(root.Endpoint())
		if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
			t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
		}
		want := [2]uint64{3, 4}
		if parked {
			want = [2]uint64{3, 5}
		}
		if leaf, trips := k.LeafCalls(); [2]uint64{leaf, trips} != want {
			t.Errorf("parked %v: LeafCalls = %d of %d round trips, want %d of %d", parked, leaf, trips, want[0], want[1])
		}
	}
}

// machineView is what the leaf path must leave as the switch path does:
// how the run ended and when, every counter, and the scenario's log.
type machineView struct {
	res      Result
	counters map[string]uint64
	log      []string
}

// bothWays builds the scenario on two machines, one whose servers register
// their steps (cfg returns ServerConfig{Step: s}) and one whose servers do
// not, runs both, and fails unless they end alike and the first served a
// leaf call. note logs an event with the virtual time.
func bothWays(t *testing.T, build func(k *Kernel, cfg func(Stepper) ServerConfig, note func(string))) machineView {
	t.Helper()
	var views [2]machineView
	var leafCalls [2]uint64
	for i, withStep := range []bool{true, false} {
		k := newTestKernel()
		v := &views[i]
		cfg := func(s Stepper) ServerConfig {
			if withStep {
				return ServerConfig{Step: s}
			}
			return ServerConfig{}
		}
		build(k, cfg, func(s string) { v.log = append(v.log, fmt.Sprintf("%s@%d", s, k.Now())) })
		v.res = k.Run(testLimit)
		v.counters = k.Counters().Snapshot()
		leafCalls[i], _ = k.LeafCalls()
	}
	if leafCalls[0] == 0 || leafCalls[1] != 0 {
		t.Errorf("leaf calls %d with the steps and %d without, want some and none", leafCalls[0], leafCalls[1])
	}
	if !reflect.DeepEqual(views[0], views[1]) {
		t.Errorf("with the steps registered the machine ends as\n%+v\nwithout as\n%+v", views[0], views[1])
	}
	return views[0]
}

// A panic in a step served on the caller's coroutine is the server's
// crash, trapped on the server's own coroutine: the same CrashInfo at the
// same time, the same counters, and the same recovery — a replacement
// that serves the next request while the crashed request's caller gets
// ECRASH. The server may be parked off the chain or below its caller.
func TestLeafPanicIsTheServersCrash(t *testing.T) {
	for _, parked := range []bool{true, false} {
		leafPanic(t, parked)
	}
}

func leafPanic(t *testing.T, parked bool) {
	view := bothWays(t, func(k *Kernel, cfg func(Stepper) ServerConfig, note func(string)) {
		crashy := &testStep{ticks: 15, serve: func(ctx *Context, m Message) {
			ctx.Tick(5)
			if m.Type == 13 {
				ctx.Point("crashy.bad")
				panic("bad request")
			}
			echoStep(ctx, m)
		}}
		if parked {
			parkedStepServer(k, EpDS, "crashy", crashy, cfg(crashy))
		} else {
			k.AddServer(EpDS, "crashy", loopOf(crashy), cfg(crashy))
		}
		k.SetCrashHandler(func(info CrashInfo) error {
			note(fmt.Sprintf("crash %+v", info))
			if _, err := k.ReplaceProcess(info.Victim, info.Name, loopOf(crashy), cfg(crashy)); err != nil {
				return err
			}
			return k.DeliverReply(info.Victim, info.CurSender, Message{Errno: ECRASH})
		})
		root := k.SpawnUser("client", func(ctx *Context) {
			for _, typ := range []MsgType{100, 100, 13, 100, 100} {
				r := ctx.SendRec(EpDS, Message{Type: typ, A: 1})
				note(fmt.Sprintf("reply type %d errno %v A %d", typ, r.Errno, r.A))
			}
		})
		k.SetRootProcess(root.Endpoint())
	})
	if view.res.Outcome != OutcomeCompleted || view.counters["kernel.crashes"] != 1 {
		t.Errorf("run ended %v with %d crashes, want completed with 1", view.res.Outcome, view.counters["kernel.crashes"])
	}
	if !strings.Contains(strings.Join(view.log, "\n"), "reply type 13 errno ECRASH") {
		t.Errorf("the crashed request was not error-virtualized: %q", view.log)
	}
}

// A step that reaps a process does so on the caller's coroutine as it
// would on the server's: a victim parked off the chain unwinds at once, a
// victim that is a resumer on the chain — the caller's own caller, as in
// PM's exit, or the caller itself — when control next passes down through
// its frame, and its deferred kernel call re-raises the kill. (With the
// server below its caller on the chain the caller's frames stay on it
// while the step runs: such a victim unwinds later than on the switch
// path, at a time the log would show, to the same end — serveLeaf.)
func TestLeafStepReapsAsTheServerWould(t *testing.T) {
	const terminate MsgType = 20
	for _, victim := range []string{"parked", "caller's caller", "caller"} {
		t.Run(victim, func(t *testing.T) {
			bothWays(t, func(k *Kernel, cfg func(Stepper) ServerConfig, note func(string)) {
				term := &testStep{ticks: 20, serve: func(ctx *Context, m Message) {
					ctx.Tick(20)
					ctx.ReplyErr(m.From, k.TerminateProcess(Endpoint(m.A)))
				}}
				parkedStepServer(k, EpDS, "term", term, cfg(term))
				// relay asks term to terminate its own caller.
				k.AddServer(EpVFS, "relay", func(ctx *Context) {
					for {
						m := ctx.Receive()
						r := ctx.SendRec(EpDS, Message{Type: terminate, A: int64(m.From)})
						note(fmt.Sprintf("relay got %v", r.Errno))
						ctx.Reply(m.From, r)
					}
				}, ServerConfig{})
				victimBody := func(ctx *Context) {
					defer func() {
						note("victim unwound")
						ctx.SendRec(EpDS, Message{Type: 100})
						t.Error("a reaped victim's deferred SendRec returned")
					}()
					switch victim {
					case "parked":
						ctx.Receive()
					case "caller's caller":
						ctx.SendRec(EpVFS, Message{Type: 100})
					case "caller":
						ctx.SendRec(EpDS, Message{Type: terminate, A: int64(ctx.Endpoint())})
					}
					t.Error("the victim's blocking call returned")
				}
				root := k.SpawnUser("parent", func(ctx *Context) {
					// Warm up term: its first request starts its body.
					ctx.SendRec(EpDS, Message{Type: terminate, A: 9999})
					for round := 0; round < 3; round++ {
						v := k.SpawnUser("victim", victimBody)
						ctx.Yield()
						if victim == "parked" {
							r := ctx.SendRec(EpDS, Message{Type: terminate, A: int64(v.Endpoint())})
							note(fmt.Sprintf("terminate %v", r.Errno))
						}
						for n := 0; k.ProcessAlive(v.Endpoint()); n++ {
							if n == 100 {
								t.Errorf("round %d: the victim is still alive", round)
								return
							}
							ctx.Yield()
						}
						note("parent")
					}
				})
				k.SetRootProcess(root.Endpoint())
			})
		})
	}
}

// A wrong declaration fails loudly: a leaf step that tries to suspend, or
// that charges more than its bound, is a kernel fault naming the server
// and the request type, and it reaches Run's caller.
func TestLeafStepBreakingItsDeclarationIsAKernelFault(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		serve      func(ctx *Context, m Message)
	}{
		{"suspends", "the leaf step of bad(6) for request type 7 tried to suspend", func(ctx *Context, m Message) {
			if m.Type == 7 {
				ctx.Receive() // nothing is queued
			}
			echoStep(ctx, m)
		}},
		{"overruns", "the leaf step of bad(6) for request type 7 overran its bound of 10 ticks", func(ctx *Context, m Message) {
			if m.Type == 7 {
				ctx.Tick(100)
			}
			echoStep(ctx, m)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel()
			bad := &testStep{serve: tc.serve, ticks: 10}
			parkedStepServer(k, EpDS, "bad", bad, ServerConfig{Step: bad})
			root := k.SpawnUser("client", func(ctx *Context) {
				ctx.SendRec(EpDS, Message{Type: 100})
				ctx.SendRec(EpDS, Message{Type: 7})
				t.Error("the faulting request returned")
			})
			k.SetRootProcess(root.Endpoint())
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run(testLimit)
			}()
			f, ok := got.(kernelFault)
			if !ok {
				t.Fatalf("Run's caller recovered %v (%T), want a kernelFault", got, got)
			}
			if !strings.Contains(f.Error(), tc.want) {
				t.Errorf("fault = %v, want %q", f, tc.want)
			}
			if n := k.Counters().Get("kernel.panics_trapped"); n != 0 {
				t.Errorf("%d panics trapped: a kernel fault was taken for a component crash", n)
			}
		})
	}
}
