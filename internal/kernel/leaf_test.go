package kernel

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/memlog"
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
// (TestSendRecSwitchBudget's two switches), and under an armed point hook
// too: none of a hook's effects suspends the server.
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
			if n, leaf := call(4); n != 0 || leaf != 1 {
				t.Errorf("parked %v: round trip under an armed point hook cost %d switches and %d leaf calls, want 0 and 1", parked, n, leaf)
			}
		})
		k.SetRootProcess(root.Endpoint())
		if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
			t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
		}
		if served, switches := k.LeafCalls(); served != 4 || switches != k.switches {
			t.Errorf("parked %v: LeafCalls = %d steps served and %d switches, want 4 and %d", parked, served, switches, k.switches)
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

// An asynchronous request to a parked server with a step is served at the
// sender's next yield, here its Receive of the answer, as a SendRec's is:
// no switch.
func TestLeafServedAtReceiveYield(t *testing.T) {
	k := newTestKernel()
	echo := &testStep{serve: echoStep, ticks: 10}
	parkedStepServer(k, EpDS, "echo", echo, ServerConfig{Step: echo})
	root := k.SpawnUser("client", func(ctx *Context) {
		ctx.SendRec(EpDS, Message{Type: 100}) // starts the server's body
		for i := 0; i < 3; i++ {
			before, served := k.switches, k.leafCalls
			ctx.Send(EpDS, Message{Type: 100, A: int64(i)})
			if r := ctx.Receive(); r.A != int64(i)+1 {
				t.Errorf("round %d: answer A = %d, want %d", i, r.A, i+1)
			}
			if n, leaf := k.switches-before, k.leafCalls-served; n != 0 || leaf != 1 {
				t.Errorf("round %d: an asynchronous request and its answer cost %d switches and %d steps served, want 0 and 1", i, n, leaf)
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// One yield serves a chain: a step that leaves the pick at another parked
// server with a step has that one served too, and so on. A prober pinging
// every server, as a heartbeat round does, collects the answers without a
// switch.
func TestLeafChainServedAtOneYield(t *testing.T) {
	const ping, pong MsgType = 6, 7
	k := newTestKernel()
	targets := []Endpoint{EpPM, EpVM, EpVFS, EpDS, EpDriver}
	pinged := &testStep{ticks: 10, serve: func(ctx *Context, m Message) {
		ctx.Tick(10)
		ctx.Send(m.From, Message{Type: pong})
	}}
	for _, ep := range targets {
		parkedStepServer(k, ep, "pinged", pinged, ServerConfig{Step: pinged})
	}
	root := k.SpawnUser("prober", func(ctx *Context) {
		round := func() (switches, served uint64) {
			before, leaf := k.switches, k.leafCalls
			for _, ep := range targets {
				ctx.Send(ep, Message{Type: ping})
			}
			for range targets {
				if m := ctx.Receive(); m.Type != pong {
					t.Errorf("prober received type %d, want a pong", m.Type)
				}
			}
			return k.switches - before, k.leafCalls - leaf
		}
		round() // starts the servers' bodies
		for i := 0; i < 3; i++ {
			if n, leaf := round(); n != 0 || leaf != uint64(len(targets)) {
				t.Errorf("round %d cost %d switches and %d steps served, want 0 and %d", i, n, leaf, len(targets))
			}
		}
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(testLimit); res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// A point hook fires inside a step served at a yield exactly as on the
// server's own coroutine: the crash and hang models' panics, a store
// corruption, a reply errno override and the hook re-arming itself leave
// the machine as the switch path does, over several seeds.
func TestLeafStepUnderPointHookFaults(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		view := bothWays(t, func(k *Kernel, cfg func(Stepper) ServerConfig, note func(string)) {
			rng := sim.NewRNG(seed)
			store := memlog.NewStore("faulty", memlog.Optimized)
			count := memlog.NewCell(store, "faulty.count", int64(0))
			faulty := &testStep{ticks: 20, serve: func(ctx *Context, m Message) {
				ctx.Point("faulty.entry")
				ctx.Tick(10)
				count.Set(count.Get() + 1)
				ctx.Point("faulty.exit")
				ctx.Tick(10)
				ctx.Reply(m.From, Message{A: count.Get()})
			}}
			config := func() ServerConfig {
				c := cfg(faulty)
				c.Store = store
				return c
			}
			parkedStepServer(k, EpDS, "faulty", faulty, config())
			var hook func(ep Endpoint, name, site string)
			hook = func(ep Endpoint, _, site string) {
				switch rng.Intn(10) {
				case 0:
					panic("injected crash at " + site)
				case 1:
					k.Clock().Advance(50_000)
					panic("injected hang at " + site)
				case 2:
					note(fmt.Sprintf("corrupted %v at %s", store.CorruptRandom(rng), site))
				case 3:
					k.OverrideNextReplyErrno(ep, EIO)
				case 4:
					other := "faulty.exit"
					if site == other {
						other = "faulty.entry"
					}
					k.SetPointHook(hook, other)
				case 5:
					k.SetPointHook(hook, "faulty.entry", "faulty.exit")
				}
			}
			k.SetPointHook(hook, "faulty.entry", "faulty.exit")
			k.SetCrashHandler(func(info CrashInfo) error {
				note(fmt.Sprintf("crash %+v", info))
				if _, err := k.ReplaceProcess(info.Victim, info.Name, loopOf(faulty), config()); err != nil {
					return err
				}
				return k.DeliverReply(info.Victim, info.CurSender, Message{Errno: ECRASH})
			})
			client := func(async bool) Body {
				return func(ctx *Context) {
					for i := 0; i < 30; i++ {
						var r Message
						if async {
							ctx.Send(EpDS, Message{Type: 100})
							r = ctx.Receive()
						} else {
							r = ctx.SendRec(EpDS, Message{Type: 100})
						}
						note(fmt.Sprintf("%d got errno %v A %d", ctx.Endpoint(), r.Errno, r.A))
					}
				}
			}
			others := []*Process{k.SpawnUser("sync", client(false)), k.SpawnUser("async", client(true))}
			root := k.SpawnUser("root", func(ctx *Context) {
				client(false)(ctx)
				for _, p := range others {
					for p.Alive() {
						ctx.Yield()
					}
				}
			})
			k.SetRootProcess(root.Endpoint())
		})
		if view.res.Outcome != OutcomeCompleted || view.counters["kernel.crashes"] == 0 {
			t.Errorf("seed %d: run ended %v with %d crashes, want completed with some", seed, view.res.Outcome, view.counters["kernel.crashes"])
		}
	}
}

// goroutine returns the calling goroutine's id, from its stack header:
// a step served at a yield runs on the yielding process's goroutine.
func goroutine() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// A heartbeat round served at a yield may declare the yielding process
// hung: the step fail-stops the process whose coroutine it runs on, and
// that frame unwinds and hands the pick on, as the switch path's does when
// control passes down to it. Spinners trigger the rounds themselves and
// never answer a ping; responders answer a few, then spin.
func TestLeafHeartbeatReapsTheYieldingProcess(t *testing.T) {
	const round, ping, pong MsgType = 5, 6, 7
	for seed := uint64(1); seed <= 4; seed++ {
		var yielderReaped []int
		bothWays(t, func(k *Kernel, cfg func(Stepper) ServerConfig, note func(string)) {
			rng := sim.NewRNG(seed)
			misses := 1 + rng.Intn(3)
			yielderReaped = append(yielderReaped, 0)
			run := len(yielderReaped) - 1
			missed := map[Endpoint]int{}
			on := map[Endpoint]string{} // the goroutine each victim's body runs on
			var victims []Endpoint
			hb := &testStep{ticks: 10 + 10*8, serve: func(ctx *Context, m Message) {
				ctx.Tick(10)
				switch m.Type {
				case pong:
					missed[m.From] = 0
				case round:
					for _, v := range victims {
						if !k.ProcessAlive(v) {
							continue
						}
						if missed[v] >= misses {
							if on[v] == goroutine() {
								yielderReaped[run]++
							}
							note(fmt.Sprintf("declare %d hung: %v", v, k.FailStopProcess(v, "missed its heartbeats")))
							continue
						}
						missed[v]++
						ctx.Send(v, Message{Type: ping})
						ctx.Tick(10)
					}
				}
			}}
			parkedStepServer(k, EpRS, "hb", hb, cfg(hb))
			k.SetCrashHandler(func(info CrashInfo) error {
				note(fmt.Sprintf("crash of %d: %v", info.Victim, info.PanicValue))
				return nil
			})
			spinner := func(ctx *Context) {
				on[ctx.Endpoint()] = goroutine()
				defer note(fmt.Sprintf("spinner %d unwound", ctx.Endpoint()))
				for {
					ctx.Send(EpRS, Message{Type: round})
					ctx.Tick(k.cost.Quantum)
				}
			}
			responder := func(ctx *Context) {
				for answers := 1 + rng.Intn(3); answers > 0; {
					if m := ctx.Receive(); m.Type == ping {
						ctx.Tick(sim.Cycles(5 + rng.Intn(20)))
						ctx.Send(EpRS, Message{Type: pong})
						answers--
					}
				}
				spinner(ctx)
			}
			root := k.SpawnUser("root", func(ctx *Context) {
				for i := 0; i < 6; i++ {
					body := spinner
					if rng.Intn(3) == 0 {
						body = responder
					}
					p := k.SpawnUser("victim", body)
					victims = append(victims, p.Endpoint())
					for n := 0; n < 40 && p.Alive(); n++ {
						ctx.Yield()
					}
					note(fmt.Sprintf("victim %d alive %v", p.Endpoint(), p.Alive()))
				}
			})
			k.SetRootProcess(root.Endpoint())
		})
		if yielderReaped[0] == 0 || yielderReaped[1] != 0 {
			t.Errorf("seed %d: a round reaped the process it was served on %d times with the steps and %d without, want some and none", seed, yielderReaped[0], yielderReaped[1])
		}
	}
}

// Under an IPC plane that drops, duplicates, delays, reorders and
// corrupts a tenth of all transmissions each, steps served at yields
// leave the machine, its transport ledger too, as the switch path does:
// a request's fate is rolled before the pick, its reply's inside the step.
func TestLeafStepsUnderIPCFaults(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		bothWays(t, func(k *Kernel, cfg func(Stepper) ServerConfig, note func(string)) {
			k.SetIPCFaultPlane(IPCFaultConfig{DropBP: 1000, DupBP: 1000, DelayBP: 1000, ReorderBP: 1000, CorruptBP: 1000},
				IPCReliability{TimeoutCycles: ipcTestTimeout}, seed)
			var seen int64
			tally := &testStep{ticks: 10, serve: func(ctx *Context, m Message) {
				ctx.Tick(10)
				seen++
				if m.NeedsReply {
					ctx.Reply(m.From, Message{A: seen})
				}
			}}
			relay := &testStep{ticks: 20, serve: func(ctx *Context, m Message) {
				ctx.Tick(10)
				ctx.Send(EpVM, Message{Type: 8, A: m.A})
				ctx.Tick(10)
				ctx.Reply(m.From, Message{A: m.A + 1})
			}}
			parkedStepServer(k, EpVM, "tally", tally, cfg(tally))
			parkedStepServer(k, EpDS, "relay", relay, cfg(relay))
			client := func(ctx *Context) {
				for i := 0; i < 25; i++ {
					dst := EpDS
					if i%3 == 2 {
						dst = EpVM
					}
					r := ctx.SendRec(dst, Message{Type: 9, A: int64(i)})
					note(fmt.Sprintf("%d: %d from %d: errno %v A %d", ctx.Endpoint(), i, dst, r.Errno, r.A))
				}
			}
			others := []*Process{k.SpawnUser("a", client), k.SpawnUser("b", client)}
			root := k.SpawnUser("root", func(ctx *Context) {
				client(ctx)
				for _, p := range others {
					for p.Alive() {
						ctx.Tick(ipcTestTimeout)
					}
				}
				stats, _ := k.IPCStats()
				note(fmt.Sprintf("%+v", stats))
			})
			k.SetRootProcess(root.Endpoint())
		})
	}
}
