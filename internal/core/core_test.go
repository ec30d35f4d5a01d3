package core

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// echoComp is a minimal recoverable component for engine-level tests.
type echoComp struct {
	calls *memlog.Cell[int64]
	// crashOn makes Handle panic on the nth request seen across the
	// component's lifetime (0 = never). The counter deliberately lives
	// outside the store so a rolled-back call does not re-trigger: the
	// planned fault is transient, like a one-shot injection.
	crashOn int64
	seen    *int64
}

func newEchoComp(st *memlog.Store, crashOn int64, seen *int64) *echoComp {
	return &echoComp{
		calls:   memlog.NewCell(st, "echo.calls", int64(0)),
		crashOn: crashOn,
		seen:    seen,
	}
}

func (e *echoComp) Name() string { return "echo" }

func (e *echoComp) Handle(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("echo.handle")
	e.calls.Set(e.calls.Get() + 1)
	*e.seen++
	if e.crashOn > 0 && *e.seen == e.crashOn {
		ctx.Crash("echo: planned crash on call %d", e.crashOn)
	}
	ctx.Reply(m.From, kernel.Message{A: e.calls.Get()})
}

const echoEP = kernel.EpDS // reuse a well-known endpoint slot

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.maxRecoveries() != 25 {
		t.Fatalf("default maxRecoveries = %d", c.maxRecoveries())
	}
	c.MaxRecoveries = 3
	if c.maxRecoveries() != 3 {
		t.Fatalf("maxRecoveries = %d", c.maxRecoveries())
	}
	c.Policy = seep.PolicyEnhanced
	if got := c.instrumentation(c.policyFor(echoEP)); got != memlog.Optimized {
		t.Fatalf("instrumentation = %v", got)
	}
	c.Instrumentation = memlog.Unoptimized
	if got := c.instrumentation(c.policyFor(echoEP)); got != memlog.Unoptimized {
		t.Fatalf("override instrumentation = %v", got)
	}
}

func TestPolicyFor(t *testing.T) {
	c := Config{
		Policy:            seep.PolicyEnhanced,
		ComponentPolicies: map[kernel.Endpoint]seep.Policy{echoEP: seep.PolicyStateless},
	}
	if got := c.policyFor(echoEP); got != seep.PolicyStateless {
		t.Fatalf("override = %v", got)
	}
	if got := c.policyFor(kernel.EpPM); got != seep.PolicyEnhanced {
		t.Fatalf("default = %v", got)
	}
}

// runEngine boots a one-component machine and drives n requests.
func runEngine(t *testing.T, cfg Config, crashOn int64, requests int) (*OS, []kernel.Errno, kernel.Result) {
	t.Helper()
	cfg.Seed = 1
	o := NewOS(cfg)
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		return newEchoComp(st, crashOn, &seen)
	})
	var errnos []kernel.Errno
	o.SpawnInit("client", func(ctx *kernel.Context) {
		for i := 0; i < requests; i++ {
			r := ctx.SendRec(echoEP, kernel.Message{Type: 300})
			errnos = append(errnos, r.Errno)
		}
	})
	res := o.Run(1_000_000_000)
	return o, errnos, res
}

func TestEngineRollbackRecovery(t *testing.T) {
	o, errnos, res := runEngine(t, Config{Policy: seep.PolicyEnhanced}, 2, 4)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	want := []kernel.Errno{kernel.OK, kernel.ECRASH, kernel.OK, kernel.OK}
	for i, w := range want {
		if errnos[i] != w {
			t.Fatalf("request %d errno = %v, want %v (all: %v)", i, errnos[i], w, errnos)
		}
	}
	if o.Recoveries != 1 {
		t.Fatalf("recoveries = %d", o.Recoveries)
	}
	// The crashing call was rolled back: the counter shows 3 completed
	// calls, not 4.
	stats := o.Stats()
	if len(stats) != 1 || stats[0].Name != "echo" {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Recoveries != 1 {
		t.Fatalf("component recoveries = %d", stats[0].Recoveries)
	}
}

func TestEngineCrashStormQuarantines(t *testing.T) {
	// A component that crashes on every call exhausts the decaying
	// crash budget; the sequencer quarantines it and the rest of the
	// machine keeps running with IPC to it error-virtualized to ECRASH.
	cfg := Config{Policy: seep.PolicyEnhanced, MaxRecoveries: 2}
	o := NewOS(cfg)
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		return &alwaysCrash{echoComp: newEchoComp(st, 0, &seen)}
	})
	var errnos []kernel.Errno
	o.SpawnInit("client", func(ctx *kernel.Context) {
		for i := 0; i < 5; i++ {
			r := ctx.SendRec(echoEP, kernel.Message{Type: 300})
			errnos = append(errnos, r.Errno)
		}
	})
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s), want completed under quarantine", res.Outcome, res.Reason)
	}
	if o.Quarantines != 1 || !o.Quarantined(echoEP) {
		t.Fatalf("quarantines = %d, Quarantined = %v", o.Quarantines, o.Quarantined(echoEP))
	}
	if got := o.QuarantinedComponents(); len(got) != 1 || got[0] != "echo" {
		t.Fatalf("QuarantinedComponents = %v", got)
	}
	// Every request still got exactly one reply, all ECRASH.
	if len(errnos) != 5 {
		t.Fatalf("replies = %d, want 5 (IPC conservation)", len(errnos))
	}
	for i, e := range errnos {
		if e != kernel.ECRASH {
			t.Fatalf("request %d errno = %v, want ECRASH (all: %v)", i, e, errnos)
		}
	}
}

func TestEngineCrashStormAbortsWhenQuarantineDisabled(t *testing.T) {
	// DisableQuarantine restores the fail-hard pre-sequencer behaviour.
	cfg := Config{Policy: seep.PolicyEnhanced, MaxRecoveries: 2, DisableQuarantine: true}
	o := NewOS(cfg)
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		return &alwaysCrash{echoComp: newEchoComp(st, 0, &seen)}
	})
	o.SpawnInit("client", func(ctx *kernel.Context) {
		for i := 0; i < 5; i++ {
			ctx.SendRec(echoEP, kernel.Message{Type: 300})
		}
	})
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeCrashed || !strings.Contains(res.Reason, "crash storm") {
		t.Fatalf("outcome = %v (%s), want crash storm", res.Outcome, res.Reason)
	}
}

type alwaysCrash struct{ *echoComp }

func (a *alwaysCrash) Handle(ctx *kernel.Context, m kernel.Message) {
	ctx.Crash("always")
}

func TestEngineComponentWithoutHandlerPanics(t *testing.T) {
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1})
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		return nameOnly{}
	})
	o.SpawnInit("client", func(ctx *kernel.Context) {
		ctx.SendRec(echoEP, kernel.Message{Type: 300})
	})
	// The misconfigured component panics the moment it is dispatched,
	// before any request is in flight: no window, nothing to reply to —
	// the engine performs a controlled shutdown. Never a hang.
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeShutdown {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

type nameOnly struct{}

func (nameOnly) Name() string { return "misconfigured" }

func TestEngineAccumulatesStatsAcrossRecovery(t *testing.T) {
	o, _, res := runEngine(t, Config{Policy: seep.PolicyEnhanced}, 3, 6)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	st := o.Stats()[0]
	// Six requests handled (one aborted): at least six loop.top blocks.
	if st.Coverage.BlocksIn+st.Coverage.BlocksOut < 6 {
		t.Fatalf("blocks = %d, stats lost across recovery",
			st.Coverage.BlocksIn+st.Coverage.BlocksOut)
	}
}

func TestComponentAccessors(t *testing.T) {
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1})
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		return newEchoComp(st, 0, &seen)
	})
	if o.ComponentWindow(echoEP) == nil || o.ComponentStore(echoEP) == nil {
		t.Fatal("accessors returned nil for a registered component")
	}
	if o.ComponentWindow(kernel.EpVM) != nil || o.ComponentStore(kernel.EpVM) != nil {
		t.Fatal("accessors returned non-nil for an unregistered endpoint")
	}
	names := o.ComponentNames()
	if names[echoEP] != "echo" {
		t.Fatalf("names = %v", names)
	}
	o.SpawnInit("client", func(ctx *kernel.Context) {})
	o.Run(1_000_000)
}

func TestAddStats(t *testing.T) {
	a := seep.Stats{BlocksIn: 1, BlocksOut: 2, CyclesIn: 3, CyclesOut: 4, WindowsOpened: 5, WindowsClosed: 6}
	b := seep.Stats{BlocksIn: 10, BlocksOut: 20, CyclesIn: 30, CyclesOut: 40, WindowsOpened: 50, WindowsClosed: 60}
	got := addStats(a, b)
	if got.BlocksIn != 11 || got.BlocksOut != 22 || got.CyclesIn != 33 ||
		got.CyclesOut != 44 || got.WindowsOpened != 55 || got.WindowsClosed != 66 {
		t.Fatalf("addStats = %+v", got)
	}
}

func TestShutdownDumpPopulated(t *testing.T) {
	o := NewOS(Config{Policy: seep.PolicyPessimistic, Seed: 1})
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		return &crashAfterReply{newEchoComp(st, 0, &seen)}
	})
	o.SpawnInit("client", func(ctx *kernel.Context) {
		ctx.SendRec(echoEP, kernel.Message{Type: 300})
	})
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeShutdown {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if dump := o.ShutdownDump(); !strings.Contains(dump, "controlled shutdown") ||
		!strings.Contains(dump, "echo") {
		t.Fatalf("dump missing content:\n%s", dump)
	}
}

// crashAfterReply crashes after its window has closed (the reply).
type crashAfterReply struct{ *echoComp }

func (c *crashAfterReply) Handle(ctx *kernel.Context, m kernel.Message) {
	c.echoComp.Handle(ctx, m)
	ctx.Crash("after reply")
}

func TestOSAccessorsAndTasks(t *testing.T) {
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1})
	if o.Kernel() == nil {
		t.Fatal("Kernel() nil")
	}
	if o.Policy() != seep.PolicyEnhanced {
		t.Fatalf("Policy() = %v", o.Policy())
	}
	taskRan := false
	o.AddTask(kernel.EpDriver, "task", func(ctx *kernel.Context) {
		taskRan = true
		ctx.Receive()
	}, nil)
	ep := o.SpawnInit("client", func(ctx *kernel.Context) { ctx.Yield() })
	if o.InitEP() != ep {
		t.Fatalf("InitEP() = %v, want %v", o.InitEP(), ep)
	}
	o.Run(1_000_000)
	if !taskRan {
		t.Fatal("substrate task never ran")
	}
}

func TestUserCrashNotifiesPM(t *testing.T) {
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1})
	var notified []int64
	// A stand-in PM records user-crash notifications.
	o.AddComponent(kernel.EpPM, func(st *memlog.Store) Component {
		return &pmStub{notified: &notified}
	})
	var crasherEP kernel.Endpoint
	o.SpawnInit("client", func(ctx *kernel.Context) {
		crasher := ctx.Kernel().SpawnUser("crasher", func(c *kernel.Context) {
			c.Tick(10)
			panic("user fault")
		})
		crasherEP = crasher.Endpoint()
		for i := 0; i < 5; i++ {
			ctx.Tick(1_000)
			ctx.Yield()
		}
	})
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if len(notified) != 1 || notified[0] != int64(crasherEP) {
		t.Fatalf("PM notifications = %v, want [%d]", notified, crasherEP)
	}
}

type pmStub struct{ notified *[]int64 }

func (p *pmStub) Name() string { return "pm" }
func (p *pmStub) Handle(ctx *kernel.Context, m kernel.Message) {
	if m.Type == 107 { // proto.PMUserCrashed
		*p.notified = append(*p.notified, m.A)
	}
	if m.NeedsReply {
		ctx.ReplyErr(m.From, kernel.OK)
	}
}

func TestRootCrashAbortsRun(t *testing.T) {
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1})
	o.SpawnInit("client", func(ctx *kernel.Context) {
		ctx.Tick(10)
		panic("init died")
	})
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeCrashed || !strings.Contains(res.Reason, "root workload") {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

func TestCrashDuringRecoveryEscalatesToQuarantine(t *testing.T) {
	// The crash's recovery path itself keeps crashing (a persistent
	// fault in component init code executed during restart). The
	// sequencer retries up to MaxRestartAttempts with fresh state, then
	// quarantines the component; the blocked caller is released with
	// ECRASH and the run completes.
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1})
	var seen int64
	factoryCalls := 0
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		factoryCalls++
		if seen > 0 {
			// Recovery-time factory fault: the restart phase panics.
			panic("fault in component init during recovery")
		}
		return newEchoComp(st, 1, &seen)
	})
	var errno kernel.Errno
	o.SpawnInit("client", func(ctx *kernel.Context) {
		r := ctx.SendRec(echoEP, kernel.Message{Type: 300})
		errno = r.Errno
	})
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s), want completed", res.Outcome, res.Reason)
	}
	if !o.Quarantined(echoEP) {
		t.Fatal("repeat recovery failure did not quarantine the component")
	}
	if errno != kernel.ECRASH {
		t.Fatalf("caller errno = %v, want ECRASH", errno)
	}
	// Boot + initial restart + MaxRestartAttempts-1 escalation retries.
	if factoryCalls != 1+3 {
		t.Fatalf("factory calls = %d, want 4 (boot + 3 restart attempts)", factoryCalls)
	}
}

func TestCrashDuringRecoveryAbortsWhenQuarantineDisabled(t *testing.T) {
	// With quarantine disabled, a recovery path that keeps crashing
	// aborts the run (the paper's single-fault assumption).
	o := NewOS(Config{Policy: seep.PolicyEnhanced, Seed: 1, DisableQuarantine: true})
	var seen int64
	o.AddComponent(echoEP, func(st *memlog.Store) Component {
		if seen > 0 {
			panic("fault in component init during recovery")
		}
		return newEchoComp(st, 1, &seen)
	})
	o.SpawnInit("client", func(ctx *kernel.Context) {
		ctx.SendRec(echoEP, kernel.Message{Type: 300})
	})
	res := o.Run(1_000_000_000)
	if res.Outcome != kernel.OutcomeCrashed {
		t.Fatalf("outcome = %v (%s), want crashed", res.Outcome, res.Reason)
	}
}

func TestConfigValidateRejectsBadSequencerKnobs(t *testing.T) {
	cfg := Config{MaxRestartAttempts: -1}
	if err := cfg.Validate(); err == nil {
		t.Errorf("Validate accepted %+v", cfg)
	} else if !strings.Contains(err.Error(), "MaxRestartAttempts") {
		t.Errorf("error %q does not mention MaxRestartAttempts", err)
	}
	// Negative values on the disable-capable knobs mean "off", not error.
	ok := Config{RecoveryDecay: -1, RestartBackoffBase: -1}
	if err := ok.Validate(); err != nil {
		t.Errorf("negative disable knobs rejected: %v", err)
	}
}

// Fault rates are the interposition plane's, and the plane always runs
// the reliability layer and its sender timeout, so rates without the
// plane are a configuration no machine can run.
func TestConfigValidateRejectsRatesWithoutTimeout(t *testing.T) {
	cfg := Config{IPCFaults: kernel.IPCFaultConfig{DropBP: 10}}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "IPCPlane") {
		t.Errorf("Validate(%+v) = %v, want an error naming IPCPlane", cfg, err)
	}
	cfg.IPCPlane = true
	if err := cfg.Validate(); err != nil {
		t.Errorf("rates with the plane rejected: %v", err)
	}
}

// Config's field list against the reflective walk of its declaration,
// ComponentPolicies nil, empty and full among the values drawn.
func TestConfigFieldList(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[Config])
}

// Every retired slot — the checkpoint-rule flag and the four sequencer
// settings that became constants — holds zero in every image: a
// configuration that sets one, to 1 or to a varint of more than one
// byte, is refused, not read past.
func TestConfigRetiredSlotRejected(t *testing.T) {
	cfg := Config{
		ComponentPolicies:  map[kernel.Endpoint]seep.Policy{kernel.EpDS: seep.PolicyEnhanced},
		RecoveryDecay:      7,
		RestartBackoffBase: 9,
		MaxRestartAttempts: 2,
		DisableQuarantine:  true,
	}
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	if cfg.Code(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	// Config's field list up to its last retired slot, a field a step:
	// the steps before a slot, coded alone, end where it starts.
	fields := []struct {
		retired string
		code    func(*wire.Codec)
	}{
		{"", func(c *wire.Codec) { wire.Int(c, &cfg.Policy) }},
		{"", func(c *wire.Codec) { c.Uvarint(&cfg.Seed) }},
		{"", cfg.Cost.Code},
		{"", func(c *wire.Codec) { wire.Int(c, &cfg.Instrumentation) }},
		{"", func(c *wire.Codec) { wire.Int(c, &cfg.MaxRecoveries) }},
		{"", func(c *wire.Codec) {
			wire.Map(c, &cfg.ComponentPolicies, wire.Int[kernel.Endpoint], wire.Int[seep.Policy])
		}},
		{"fullCopyRule", cfg.fullCopyRule.Code},
		{"", func(c *wire.Codec) { wire.Int(c, &cfg.RecoveryDecay) }},
		{"", func(c *wire.Codec) { wire.Int(c, &cfg.RestartBackoffBase) }},
		{"backoffCap", cfg.backoffCap.Code},
		{"", func(c *wire.Codec) { wire.Int(c, &cfg.MaxRestartAttempts) }},
		{"deadline", cfg.deadline.Code},
		{"", func(c *wire.Codec) { c.Bool(&cfg.DisableQuarantine) }},
		{"heartbeatPeriod", cfg.heartbeatPeriod.Code},
		{"hangMisses", cfg.hangMisses.Code},
	}
	pre := wire.NewEncoder()
	c = wire.Encoding(pre)
	for _, f := range fields {
		if f.retired != "" {
			at := pre.Len()
			if e.Bytes()[at] != 0 {
				t.Fatalf("the retired slot %s holds %#x", f.retired, e.Bytes()[at])
			}
			for _, set := range [][]byte{{1}, {0x80, 0x01}, {0x80, 0x00}} {
				data := append(append(append([]byte(nil), e.Bytes()[:at]...), set...), e.Bytes()[at+1:]...)
				var back Config
				d := wire.NewDecoder(data)
				if back.Code(wire.Decoding(d)); d.Err() == nil {
					t.Errorf("a configuration with %x in its retired slot %s decoded", set, f.retired)
				}
			}
		}
		f.code(c)
	}
}
