// Package core is the OSIRIS recovery framework — the paper's primary
// contribution. It wires the checkpointing store (memlog), the SEEP
// recovery-window machinery (seep) and the microkernel substrate
// (kernel) into a bootable compartmentalized operating system, and
// implements the three-phase crash recovery engine: restart (clone +
// state transfer), rollback (undo log), and reconciliation (error
// virtualization or controlled shutdown) — paper §IV-C.
package core

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Fixed counter slots for recovery-engine statistics.
var (
	ctrRestartsDeferred      = sim.RegisterCounter("core.restarts_deferred")
	ctrCoreQuarantines       = sim.RegisterCounter("core.quarantines")
	ctrReconcileReplyDropped = sim.RegisterCounter("core.reconcile_reply_dropped")
	ctrRequestersKilled      = sim.RegisterCounter("core.requesters_killed")
	ctrRecoveries            = sim.RegisterCounter("core.recoveries")
	ctrUserCrashes           = sim.RegisterCounter("core.user_crashes")
)

// Component is one recoverable OS server. It must additionally
// implement either Handler (generic event loop, paper Fig. 1) or
// Looper (custom loop, e.g. the multithreaded VFS).
type Component interface {
	Name() string
}

// Handler processes one request at a time from the generic event loop.
type Handler interface {
	Handle(ctx *kernel.Context, m kernel.Message)
}

// Initializer is implemented by components with pre-loop initialization
// (the paper's RCB element 4).
type Initializer interface {
	Init(ctx *kernel.Context)
}

// Looper is implemented by components that own their request loop (the
// multithreaded VFS). Step is the loop's body, which RunLoop calls for
// every request it receives.
type Looper interface {
	RunLoop(ctx *kernel.Context, win *seep.Window)
	Step(ctx *kernel.Context, win *seep.Window, m kernel.Message)
}

// Leaf is implemented by a Handler or Looper some of whose requests its
// step serves without suspending the component: it names them, with a
// bound on the ticks that Handle or Step charges them (kernel.Stepper).
type Leaf interface {
	Leaf(m *kernel.Message) (ticks sim.Cycles, ok bool)
}

// Factory builds a component over a store — fresh at boot, or a
// recovered clone during the restart phase. Factories must be
// idempotent over existing container contents.
type Factory func(store *memlog.Store) Component

// Config parameterizes a boot.
type Config struct {
	// Policy is the system-wide recovery policy.
	Policy seep.Policy
	// Seed drives all randomness in the machine.
	Seed uint64
	// Cost is the kernel cost model; zero value selects the default.
	Cost kernel.CostModel
	// Instrumentation overrides the store instrumentation mode derived
	// from Policy (zero = derive). Used to measure the unoptimized
	// write-logging build of Table V.
	Instrumentation memlog.Instrumentation
	// MaxRecoveries bounds a component's crash-storm budget: crashes
	// beyond it (after decay, see RecoveryDecay) quarantine the
	// component. Zero = default (25).
	MaxRecoveries int
	// ComponentPolicies overrides Policy per component — the composable
	// recovery policies of the paper's §VII: different components may
	// run different strategies in the same system.
	ComponentPolicies map[kernel.Endpoint]seep.Policy
	// fullCopyRule holds the image slot of a flag that chose between two
	// FullCopy checkpoint charge rules; one rule is left, and the slot
	// has no value.
	fullCopyRule wire.Retired

	// RecoveryDecay is the crash-free interval (in virtual cycles) after
	// which one unit of a component's crash-storm budget is forgiven
	// (and a longer gap forgives proportionally more); it also resets
	// the consecutive-crash streak that drives restart backoff. Long
	// healthy runs are thus never killed by accumulated ancient crashes.
	// Zero = default (2,000,000 cycles); negative disables decay.
	RecoveryDecay int64
	// RestartBackoffBase is the cool-down (in virtual cycles) inserted
	// before the restart of a component that crashed twice in a row
	// without completing a healthy request; each further consecutive
	// crash doubles the cool-down up to restartBackoffCap. Zero =
	// default (50,000); negative disables backoff.
	RestartBackoffBase int64
	// backoffCap holds the image slot of the former backoff-cap
	// setting, now the constant restartBackoffCap.
	backoffCap wire.Retired
	// MaxRestartAttempts bounds how many times the restart sequence
	// itself may be attempted within one recovery incident when the
	// recovery path keeps crashing, before escalating to quarantine.
	// Zero = default (3).
	MaxRestartAttempts int
	// deadline holds the image slot of the former watchdog setting, now
	// the constant recoveryDeadline.
	deadline wire.Retired
	// DisableQuarantine restores the pre-sequencer fail-hard behaviour:
	// exhausted crash budgets and failing recoveries abort the whole run
	// instead of quarantining the offending component.
	DisableQuarantine bool
	// heartbeatPeriod and hangMisses hold the image slots of the former
	// heartbeat settings, now the constants rs.HeartbeatPeriod and
	// rs.HangMisses.
	heartbeatPeriod, hangMisses wire.Retired

	// IPCFaults sets background fault rates for the kernel's message
	// interposition plane (drop/dup/delay/reorder/corrupt, in basis
	// points). The zero value — the default — injects nothing. Non-zero
	// rates require IPCPlane.
	IPCFaults kernel.IPCFaultConfig
	// IPCFaultSeed decorrelates the IPC fault stream from Seed. Zero
	// derives the stream from a fixed constant.
	IPCFaultSeed uint64
	// IPCPlane turns on the interposition plane, which always carries
	// the end-to-end IPC reliability layer (sequence numbers, checksums,
	// dedup, sender-side timeout/retry with bounded backoff,
	// dead-lettering) at a base sender timeout of
	// DefaultIPCTimeoutCycles. Off — the default — means no plane, and
	// runs bit-identical to builds without it.
	IPCPlane bool
	// retryMax holds the image slot of the former retry-budget setting,
	// now a kernel constant.
	retryMax wire.Retired
}

// Code lists the configuration's fields, in declaration order, for the
// metadata frame of an on-disk image.
func (cfg *Config) Code(c *wire.Codec) {
	wire.Int(c, &cfg.Policy)
	c.Uvarint(&cfg.Seed)
	cfg.Cost.Code(c)
	wire.Int(c, &cfg.Instrumentation)
	wire.Int(c, &cfg.MaxRecoveries)
	wire.Map(c, &cfg.ComponentPolicies, wire.Int[kernel.Endpoint], wire.Int[seep.Policy])
	cfg.fullCopyRule.Code(c)
	wire.Int(c, &cfg.RecoveryDecay)
	wire.Int(c, &cfg.RestartBackoffBase)
	cfg.backoffCap.Code(c)
	wire.Int(c, &cfg.MaxRestartAttempts)
	cfg.deadline.Code(c)
	c.Bool(&cfg.DisableQuarantine)
	cfg.heartbeatPeriod.Code(c)
	cfg.hangMisses.Code(c)
	cfg.IPCFaults.Code(c)
	c.Uvarint(&cfg.IPCFaultSeed)
	c.Bool(&cfg.IPCPlane)
	cfg.retryMax.Code(c)
}

// DefaultIPCTimeoutCycles is the base sender timeout of the IPC
// reliability layer: long enough that slow multi-hop requests (fork,
// exec, device I/O) do not time out spuriously, short enough that
// several retries fit into a run.
const DefaultIPCTimeoutCycles int64 = 400_000

// Validate rejects nonsensical configurations. NewOS panics on invalid
// configs, so misconfiguration surfaces at boot, not mid-run.
func (c Config) Validate() error {
	if c.MaxRecoveries < 0 {
		return fmt.Errorf("core: MaxRecoveries must be >= 0, got %d", c.MaxRecoveries)
	}
	if c.MaxRestartAttempts < 0 {
		return fmt.Errorf("core: MaxRestartAttempts must be >= 0, got %d", c.MaxRestartAttempts)
	}
	if err := c.IPCFaults.Validate(); err != nil {
		return err
	}
	if c.IPCFaults.Enabled() && !c.IPCPlane {
		return fmt.Errorf("core: IPC fault rates require IPCPlane (the rates are the plane's)")
	}
	return nil
}

// slot tracks one recoverable component across recoveries.
type slot struct {
	ep      kernel.Endpoint
	name    string
	factory Factory
	policy  seep.Policy

	comp   Component
	store  *memlog.Store
	window *seep.Window

	recoveries int
	// accum collects window stats of replaced instances so coverage
	// reporting spans recoveries.
	accum seep.Stats
	// cloneResident is the memory held by the spare copy kept for the
	// restart phase (Table VI's "+clone").
	cloneResident int

	// Recovery-sequencer state.
	//
	// storm is the decaying crash budget: incremented per crash, decayed
	// by crash-free time (Config.RecoveryDecay), quarantining the
	// component when it exceeds Config.MaxRecoveries. consecutive counts
	// crashes since the component last completed a healthy request; it
	// drives the exponential restart backoff. attempts counts restart
	// executions within the active incident (escalation ladder), and
	// incidentAt stamps when the incident's first restart began (the
	// watchdog deadline is measured from here).
	storm       int
	consecutive int
	lastCrash   sim.Cycles
	attempts    int
	incidentAt  sim.Cycles
	quarantined bool

	// inRequest is true while the generic event loop is between
	// Receive and EndRequest — the component's tables may legitimately
	// be mid-transaction, so the consistency auditor must not treat
	// cross-server disagreement about the in-flight request as a
	// violation. Loopers (VFS) report business through their own Busy
	// accessor instead.
	inRequest bool

	// loopPoints holds the generic loop's two instrumentation sites, top
	// then bottom (serverBody, Step).
	loopPoints string
}

// OS is one booted machine.
type OS struct {
	cfg   Config
	k     *kernel.Kernel
	slots map[kernel.Endpoint]*slot
	order []kernel.Endpoint

	initEP kernel.Endpoint

	// Recoveries counts successful component recoveries.
	Recoveries int
	// Quarantines counts components detached by the sequencer's
	// graceful-degradation escalation.
	Quarantines int
	// restartHook observes every restart attempt before the restart
	// phase builds the replacement state (SetRestartHook). Fault
	// campaigns inject recovery-phase faults through it.
	restartHook func(ep kernel.Endpoint, attempt int)
	// auditHook runs after every successfully completed recovery
	// (SetAuditHook). The consistency auditor checks its cross-server
	// oracles through it.
	auditHook func()
	// postMortem is what the last controlled shutdown kept for its
	// report (ShutdownDump), nil before one.
	postMortem *postMortem
}

// postMortem is the state a controlled shutdown records — the §VII
// "controlled shutdown" improvement: the system stops consistently AND
// leaves a record of what it knew. It keeps the values the report reads
// at that moment; the stores' sizes and the text are made only when the
// report is asked for, and nothing writes a store after the shutdown.
type postMortem struct {
	at   sim.Cycles
	info kernel.CrashInfo
	rows []postMortemRow
}

// postMortemRow is one component's line of the report.
type postMortemRow struct {
	s          *slot
	window     string
	logLen     int
	recoveries int
}

// policyFor resolves the effective policy of a component.
func (c Config) policyFor(ep kernel.Endpoint) seep.Policy {
	if p, ok := c.ComponentPolicies[ep]; ok {
		return p
	}
	return c.Policy
}

// instrumentation resolves the effective store mode for a policy.
func (c Config) instrumentation(policy seep.Policy) memlog.Instrumentation {
	if c.Instrumentation != 0 {
		return c.Instrumentation
	}
	return policy.Instrumentation()
}

func (c Config) maxRecoveries() int {
	if c.MaxRecoveries > 0 {
		return c.MaxRecoveries
	}
	return 25
}

func (c Config) recoveryDecay() sim.Cycles {
	switch {
	case c.RecoveryDecay > 0:
		return sim.Cycles(c.RecoveryDecay)
	case c.RecoveryDecay < 0:
		return 0 // disabled
	}
	return 2_000_000
}

// restartBackoffCap caps the exponential restart backoff, in virtual
// cycles.
const restartBackoffCap sim.Cycles = 1_600_000

// recoveryDeadline is the recovery watchdog: a virtual-cycle budget for
// one recovery incident (restart, rollback and reconciliation, including
// escalation retries). Exceeding it converts the incident into
// quarantine of just that component.
const recoveryDeadline sim.Cycles = 5_000_000

func (c Config) backoffBase() sim.Cycles {
	switch {
	case c.RestartBackoffBase > 0:
		return sim.Cycles(c.RestartBackoffBase)
	case c.RestartBackoffBase < 0:
		return 0 // disabled
	}
	return 50_000
}

func (c Config) maxRestartAttempts() int {
	if c.MaxRestartAttempts > 0 {
		return c.MaxRestartAttempts
	}
	return 3
}

// NewOS creates a machine with no components yet. Most callers should
// use boot.Boot (internal/boot) which assembles the full server set.
func NewOS(cfg Config) *OS { return NewOSIn(nil, cfg) }

// NewOSIn is NewOS with the kernel built on arena a (kernel.NewIn).
func NewOSIn(a *kernel.Arena, cfg Config) *OS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Cost == (kernel.CostModel{}) {
		cfg.Cost = kernel.DefaultCostModel()
	}
	o := &OS{
		cfg:   cfg,
		k:     kernel.NewIn(a, cfg.Cost, cfg.Seed),
		slots: make(map[kernel.Endpoint]*slot),
	}
	o.k.SetCrashHandler(o.handleCrash)
	if cfg.IPCPlane {
		o.k.SetIPCFaultPlane(cfg.IPCFaults, kernel.IPCReliability{
			TimeoutCycles: sim.Cycles(DefaultIPCTimeoutCycles),
		}, cfg.IPCFaultSeed)
	}
	return o
}

// Kernel exposes the underlying machine.
func (o *OS) Kernel() *kernel.Kernel { return o.k }

// Policy reports the active recovery policy.
func (o *OS) Policy() seep.Policy { return o.cfg.Policy }

// AddComponent registers a recoverable server built by factory at ep.
func (o *OS) AddComponent(ep kernel.Endpoint, factory Factory) {
	policy := o.cfg.policyFor(ep)
	store := o.newStore(ep, policy)
	comp := factory(store)
	win := seep.NewWindow(policy, store)
	o.bindCostSink(store, win)
	s := &slot{
		ep:            ep,
		name:          comp.Name(),
		factory:       factory,
		policy:        policy,
		comp:          comp,
		store:         store,
		window:        win,
		cloneResident: store.BaseBytes(),
	}
	o.slots[ep] = s
	o.order = append(o.order, ep)
	o.k.AddServer(ep, s.name, o.serverBody(s, false), s.config())
}

// newStore creates a component store wired to the machine.
func (o *OS) newStore(ep kernel.Endpoint, policy seep.Policy) *memlog.Store {
	st := memlog.NewStore(fmt.Sprintf("comp-%d", ep), o.cfg.instrumentation(policy))
	st.SetCounters(o.k.Counters())
	return st
}

// bindCostSink routes instrumentation costs to the clock and the
// component's recovery-window accounting.
func (o *OS) bindCostSink(store *memlog.Store, win *seep.Window) {
	clock := o.k.Clock()
	store.SetCostSink(func(n sim.Cycles) {
		clock.Advance(n)
		win.AccountCycles(n)
	})
}

// AddTask registers a substrate process (driver, system task) with no
// recovery attachments, and with its per-request step when it has one
// (kernel.Stepper; nil for none).
func (o *OS) AddTask(ep kernel.Endpoint, name string, body kernel.Body, step kernel.Stepper) {
	o.k.AddServer(ep, name, body, kernel.ServerConfig{Step: step})
}

// SpawnInit creates the root workload process; its exit completes the
// run. Call before AddComponent(PM) so the endpoint is known: the first
// user endpoint is always kernel.EpUserBase.
func (o *OS) SpawnInit(name string, body kernel.Body) kernel.Endpoint {
	p := o.k.SpawnUser(name, body)
	o.initEP = p.Endpoint()
	o.k.SetRootProcess(o.initEP)
	return o.initEP
}

// InitEP returns the root workload endpoint.
func (o *OS) InitEP() kernel.Endpoint { return o.initEP }

// Run drives the machine to completion.
func (o *OS) Run(limit sim.Cycles) kernel.Result {
	res := o.k.Run(limit)
	// The machine is dead; campaigns boot hundreds of them per process.
	// Recycle every component's undo-log slab so the next boot starts
	// from the pool instead of the heap. Scalar statistics (high-water
	// marks, counters) survive for the evaluation tables.
	for _, ep := range o.order {
		o.slots[ep].store.ReleaseLog()
	}
	return res
}

// Shutdown force-stops a machine left parked by RunToBarrier
// (kernel.Teardown) and recycles the undo-log slabs exactly as Run's
// epilogue does. Calling it on a machine that already finished is
// harmless.
func (o *OS) Shutdown(reason string) {
	o.k.Teardown(reason)
	for _, ep := range o.order {
		o.slots[ep].store.ReleaseLog()
	}
}

// serverBody wraps a component in the OSIRIS event-driven request loop
// (paper Fig. 1): checkpoint at the top of the loop, window management
// around every request. With resume, a forked component skips its
// pre-loop initialization, because that code already ran in the captured
// machine and its effects (store contents, pending alarms) arrive
// through the image. Restarts after a post-fork crash run Init as usual.
func (o *OS) serverBody(s *slot, resume bool) kernel.Body {
	if s.loopPoints == "" {
		// Built once per slot, not once per request: one string, which
		// Step slices.
		s.loopPoints = s.name + loopTop + s.name + ".loop.bottom"
	}
	return func(ctx *kernel.Context) {
		if init, ok := s.comp.(Initializer); ok && !resume {
			init.Init(ctx)
		}
		switch c := s.comp.(type) {
		case Looper:
			c.RunLoop(ctx, s.window)
		case Handler:
			for {
				m := ctx.Receive()
				s.handle(ctx, c, &m)
			}
		default:
			panic(fmt.Sprintf("core: component %s implements neither Handler nor Looper", s.name))
		}
	}
}

// loopTop ends the name of the generic loop's top site; loopTicks is the
// loop's own charge per request.
const (
	loopTop   = ".loop.top"
	loopTicks = 10
)

// config is the kernel configuration of the slot's server: a component
// with leaf requests registers the slot's step.
func (s *slot) config() kernel.ServerConfig {
	cfg := kernel.ServerConfig{Window: s.window, Store: s.store}
	if _, ok := s.comp.(Leaf); ok {
		cfg.Step = s
	}
	return cfg
}

// Step serves one request as the component's loop does: a Looper's own
// step, or the generic loop's (kernel.Stepper).
func (s *slot) Step(ctx *kernel.Context, m kernel.Message) {
	switch c := s.comp.(type) {
	case Looper:
		c.Step(ctx, s.window, m)
	case Handler:
		s.handle(ctx, c, &m)
	}
}

// handle is the body of the generic loop: h, the component, serves m.
func (s *slot) handle(ctx *kernel.Context, h Handler, m *kernel.Message) {
	top := len(s.name) + len(loopTop)
	s.window.BeginRequest(m.NeedsReply)
	s.inRequest = true
	ctx.Point(s.loopPoints[:top])
	h.Handle(ctx, *m)
	// Bottom-of-loop bookkeeping runs after the reply passage closed
	// the window.
	ctx.Point(s.loopPoints[top:])
	ctx.Tick(loopTicks)
	s.inRequest = false
	s.window.EndRequest()
	// A completed request resets the consecutive-crash streak: restart
	// backoff targets components that crash again before doing any
	// useful work.
	s.consecutive = 0
}

// Leaf is the component's Leaf, with the generic loop's tick added
// (kernel.Stepper).
func (s *slot) Leaf(m *kernel.Message) (sim.Cycles, bool) {
	ticks, ok := s.comp.(Leaf).Leaf(m)
	if _, loops := s.comp.(Looper); !loops {
		ticks += loopTicks
	}
	return ticks, ok
}

// handleCrash is the recovery-sequencer entry point, invoked in kernel
// context with userland stalled (paper §II-E, §IV-C). The paper assumes
// one failure at a time; the sequencer lifts that: the kernel queues
// overlapping crashes and delivers them here serially, repeat offenders
// are retried with exponential backoff (DeferCrash), a failing recovery
// path escalates restart → fresh restart → quarantine, and a watchdog
// deadline bounds the whole incident.
func (o *OS) handleCrash(info kernel.CrashInfo) error {
	s := o.slots[info.Victim]
	if s == nil {
		return o.handleUserCrash(info)
	}
	if s.quarantined {
		// Late crash event of an already-detached component: ignore.
		return nil
	}
	if info.DuringRecovery {
		// The recovery path itself crashed (e.g. a fault in component
		// init code executed during restart). Escalate: retry with
		// fresh state, quarantine once the attempt budget or the
		// watchdog deadline is exhausted.
		s.attempts++
		if s.attempts > o.cfg.maxRestartAttempts() {
			return o.quarantine(s, fmt.Sprintf("recovery failed %d times (%v)", s.attempts-1, info.PanicValue))
		}
		if o.k.Now()-s.incidentAt > recoveryDeadline {
			return o.quarantine(s, fmt.Sprintf("recovery watchdog: incident exceeded %d cycles", recoveryDeadline))
		}
		return o.restart(s, info, restartFresh, reconcileVirtualize)
	}
	if !info.Deferred {
		now := o.k.Now()
		o.decayStorm(s, now)
		s.recoveries++
		s.consecutive++
		s.storm++
		s.lastCrash = now
		if s.storm > o.cfg.maxRecoveries() {
			return o.quarantine(s, fmt.Sprintf("crash storm: component %s crashed %d times", s.name, s.recoveries))
		}
		if delay := o.backoffDelay(s.consecutive); delay > 0 {
			// Repeat offender: cool down before restarting. The crash
			// re-arrives with Deferred set; meanwhile the component stays
			// detached and IPC to it queues in its surviving inbox.
			o.k.Counters().AddID(ctrRestartsDeferred, 1)
			o.k.DeferCrash(info, delay)
			return nil
		}
	}
	s.attempts = 1
	s.incidentAt = o.k.Now()

	switch s.policy {
	case seep.PolicyStateless:
		return o.restart(s, info, restartFresh, reconcileVirtualize)
	case seep.PolicyNaive:
		return o.restart(s, info, restartKeepState, reconcileVirtualize)
	case seep.PolicyPessimistic, seep.PolicyEnhanced, seep.PolicyExtended:
		// Reconciliation decision (paper §IV-C): rollback recovery is
		// safe only when the window is open; error virtualization
		// additionally needs a replyable in-flight request.
		if !s.window.Open() {
			break
		}
		if s.window.RequesterLocalTaint() {
			// §VII extension: the window absorbed requester-local side
			// effects; rollback is consistent only if the requester is
			// killed, cleaning its state in the other compartments.
			if info.CurSender >= kernel.EpUserBase {
				return o.restart(s, info, restartRollback, reconcileKillRequester)
			}
			break // requester is a server: too entangled, shut down
		}
		if info.CurNeedsReply {
			return o.restart(s, info, restartRollback, reconcileVirtualize)
		}
	default:
		return fmt.Errorf("component %s crashed under policy with no recovery", s.name)
	}
	o.recordPostMortem(info)
	o.k.ControlledShutdown(fmt.Sprintf(
		"component %s crashed outside its recovery window (window open=%v, replyable=%v)",
		s.name, s.window.Open(), info.CurNeedsReply))
	return nil
}

// decayStorm forgives crash-budget units earned by ancient crashes: one
// unit per crash-free RecoveryDecay interval since the last crash. A
// full interval also resets the consecutive-crash streak, so backoff
// only punishes components that crash again promptly.
func (o *OS) decayStorm(s *slot, now sim.Cycles) {
	d := o.cfg.recoveryDecay()
	if d <= 0 {
		return
	}
	gap := now - s.lastCrash
	if s.lastCrash == 0 || gap < d {
		return
	}
	forgiven := int(gap / d)
	if forgiven >= s.storm {
		s.storm = 0
	} else {
		s.storm -= forgiven
	}
	s.consecutive = 0
}

// backoffDelay returns the restart cool-down for the nth consecutive
// crash: zero for the first crash in a streak, then exponential from
// RestartBackoffBase up to restartBackoffCap.
func (o *OS) backoffDelay(consecutive int) sim.Cycles {
	base := o.cfg.backoffBase()
	if base <= 0 || consecutive <= 1 {
		return 0
	}
	delay := base
	for i := 2; i < consecutive; i++ {
		delay *= 2
		if delay >= restartBackoffCap {
			return restartBackoffCap
		}
	}
	return min(delay, restartBackoffCap)
}

// quarantine detaches a component for good — the graceful-degradation
// end of the escalation ladder. The kernel error-virtualizes all
// further IPC to it as ECRASH, so the rest of the OS and userland keep
// running without the component's service. With DisableQuarantine the
// exhausted budget aborts the run instead (the pre-sequencer
// behaviour).
func (o *OS) quarantine(s *slot, reason string) error {
	if o.cfg.DisableQuarantine {
		return fmt.Errorf("%s", reason)
	}
	s.accum = addStats(s.accum, s.window.Stats())
	s.quarantined = true
	full := fmt.Sprintf("component %s quarantined: %s", s.name, reason)
	if err := o.k.QuarantineProcess(s.ep, full); err != nil {
		return fmt.Errorf("quarantine %s: %w", s.name, err)
	}
	o.Quarantines++
	o.k.Counters().AddID(ctrCoreQuarantines, 1)
	if s.ep != kernel.EpRS {
		// Tell RS so it accounts the degraded configuration (ignore if
		// RS is down or itself quarantined).
		_ = o.k.PostMessage(kernel.EpKernel, kernel.EpRS,
			kernel.Message{Type: kernel.MsgQuarantineNotify, A: int64(s.ep)})
	}
	return nil
}

// SetRestartHook installs an observer invoked at the start of every
// restart attempt (endpoint, 1-based attempt number within the
// incident). Fault-injection campaigns use it to place faults inside
// the recovery path itself. A panic inside the hook is trapped like any
// recovery-phase fault.
func (o *OS) SetRestartHook(h func(ep kernel.Endpoint, attempt int)) { o.restartHook = h }

// Quarantined reports whether the component at ep has been detached.
func (o *OS) Quarantined(ep kernel.Endpoint) bool {
	s := o.slots[ep]
	return s != nil && s.quarantined
}

// QuarantinedComponents returns the names of quarantined components in
// endpoint order.
func (o *OS) QuarantinedComponents() []string {
	var out []string
	for _, ep := range o.order {
		if s := o.slots[ep]; s.quarantined {
			out = append(out, s.name)
		}
	}
	return out
}

// recordPostMortem keeps what the report of a controlled shutdown
// triggered by info reads (ShutdownDump).
func (o *OS) recordPostMortem(info kernel.CrashInfo) {
	pm := &postMortem{at: o.k.Now(), info: info, rows: make([]postMortemRow, len(o.order))}
	for i, ep := range o.order {
		s := o.slots[ep]
		state := "closed"
		if s.window.Open() {
			state = "open"
		}
		if s.quarantined {
			state = "quarantined"
		}
		pm.rows[i] = postMortemRow{s: s, window: state, logLen: s.store.LogLen(), recoveries: s.recoveries}
	}
	o.postMortem = pm
}

// ShutdownDump renders the post-mortem report of the last controlled
// shutdown — the triggering crash and a per-component window and state
// summary — or returns "" when there was none.
func (o *OS) ShutdownDump() string {
	pm := o.postMortem
	if pm == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "controlled shutdown at t=%d\n", pm.at)
	fmt.Fprintf(&b, "trigger: %s crashed (panic: %v) while serving endpoint %d (replyable=%v)\n",
		pm.info.Name, pm.info.PanicValue, pm.info.CurSender, pm.info.CurNeedsReply)
	fmt.Fprintf(&b, "%-8s %-8s %-10s %-12s %-10s %s\n",
		"server", "policy", "window", "base-bytes", "log-len", "crashes")
	for _, r := range pm.rows {
		fmt.Fprintf(&b, "%-8s %-8s %-10s %-12d %-10d %d\n",
			r.s.name, r.s.policy, r.window, r.s.store.BaseBytes(), r.logLen, r.recoveries)
	}
	return b.String()
}

// reconcileMode selects the reconciliation action of the third recovery
// phase.
type reconcileMode int

const (
	// reconcileVirtualize sends an E_CRASH error reply to the in-flight
	// requester (error virtualization).
	reconcileVirtualize reconcileMode = iota + 1
	// reconcileKillRequester terminates the in-flight requester so its
	// requester-local state in other compartments is cleaned up through
	// the normal process-teardown path (§VII extension).
	reconcileKillRequester
)

// restartMode selects the state carried into the replacement component.
type restartMode int

const (
	// restartFresh discards all state (stateless microreboot baseline).
	restartFresh restartMode = iota + 1
	// restartKeepState reuses the crashed state verbatim, without
	// rollback (naive baseline).
	restartKeepState
	// restartRollback clones the crashed state, transfers the undo log
	// and rolls back to the window checkpoint (OSIRIS recovery).
	restartRollback
)

// Recovery time costs: replacing the dead process with the spare and
// activating it (fixed), copying the data section (per byte), and
// rolling back the undo log (per record). Recovery stalls userland, so
// these cycles are visible as service disruption (§VI-E).
const (
	restartFixedCost     sim.Cycles = 30_000
	cloneCostPerByte     sim.Cycles = 1 // amortized: one cycle per 16 bytes
	cloneCostByteShift              = 4
	rollbackCostPerEntry sim.Cycles = 20
)

// restart performs the three recovery phases: restart (replacement
// component over the selected state), rollback (mode-dependent), and
// reconciliation (error virtualization or requester kill).
func (o *OS) restart(s *slot, info kernel.CrashInfo, mode restartMode, reconcile reconcileMode) error {
	if o.restartHook != nil {
		// Observation point for recovery-phase fault injection; a panic
		// here is a crash of the recovery path and re-queues the
		// incident for escalation.
		o.restartHook(s.ep, s.attempts)
	}
	recoveryCost := restartFixedCost
	// Phase 1: restart — build the replacement state.
	var store *memlog.Store
	switch mode {
	case restartFresh:
		store = o.newStore(s.ep, s.policy)
		store.SetGeneration(s.recoveries)
	case restartKeepState:
		store = s.store
	case restartRollback:
		recoveryCost += sim.Cycles(s.store.BaseBytes()) >> cloneCostByteShift * cloneCostPerByte
		if s.store.Mode() == memlog.FullCopy {
			// Full-copy checkpointing restores in place, at no cost per
			// record, then copies the restored data section.
			s.store.Rollback()
			store = s.store.Clone()
		} else {
			// Data-section copy into the spare, then log transfer.
			store = s.store.Clone()
			s.store.TransferLog(store)
			// Phase 2: rollback to the top-of-loop checkpoint.
			recoveryCost += rollbackCostPerEntry * sim.Cycles(store.LogLen())
			store.Rollback()
		}
	}
	o.k.Clock().Advance(recoveryCost)

	win := seep.NewWindow(s.policy, store)
	o.bindCostSink(store, win)
	// Building the component over recovered state executes component
	// initialization code; a fault there crashes recovery itself (the
	// kernel traps the panic and aborts the run — paper §VI-B's
	// residual crashes).
	comp := s.factory(store)

	s.accum = addStats(s.accum, s.window.Stats())
	s.comp = comp
	if s.store != store {
		// The replaced store is dead: recycle its undo-log slab. (After
		// TransferLog the old log is already detached and this is a
		// no-op; after a fresh restart it returns the crashed log's
		// slab.)
		s.store.ReleaseLog()
	}
	s.store = store
	s.window = win
	// The replacement instance starts at the top of its loop: no
	// request is in flight regardless of what the crashed instance was
	// doing.
	s.inRequest = false
	if _, err := o.k.ReplaceProcess(s.ep, s.name, o.serverBody(s, false), s.config()); err != nil {
		return fmt.Errorf("restart %s: %w", s.name, err)
	}

	// Phase 3: reconciliation.
	switch reconcile {
	case reconcileVirtualize:
		if info.CurNeedsReply && info.CurSender != kernel.EpNone {
			if err := o.k.DeliverReply(s.ep, info.CurSender, kernel.Message{Errno: kernel.ECRASH}); err != nil {
				o.k.Counters().AddID(ctrReconcileReplyDropped, 1)
			}
		}
	case reconcileKillRequester:
		if o.k.ProcessAlive(info.CurSender) {
			o.k.TerminateProcess(info.CurSender)
		}
		// PM cleans the requester out of every compartment, exactly as
		// for a crashed user process (the freshly restarted PM handles
		// this even when PM itself was the victim).
		_ = o.k.PostMessage(kernel.EpKernel, kernel.EpPM,
			kernel.Message{Type: proto.PMUserCrashed, A: int64(info.CurSender)})
		o.k.Counters().AddID(ctrRequestersKilled, 1)
	}

	o.Recoveries++
	o.k.Counters().AddID(ctrRecoveries, 1)
	if s.ep != kernel.EpRS {
		// Tell RS so it accounts the event (ignore if RS is down).
		_ = o.k.PostMessage(kernel.EpKernel, kernel.EpRS,
			kernel.Message{Type: kernel.MsgCrashNotify, A: int64(s.ep)})
	}
	if o.auditHook != nil {
		// The recovery completed: let the consistency auditor check its
		// cross-server oracles against the post-recovery state.
		o.auditHook()
	}
	return nil
}

// handleUserCrash reacts to a fail-stopped user process: the process is
// gone (fail-stop); PM is told so it can clean up and release a waiting
// parent.
func (o *OS) handleUserCrash(info kernel.CrashInfo) error {
	if info.Victim == o.initEP {
		return fmt.Errorf("root workload process crashed: %v", info.PanicValue)
	}
	o.k.Counters().AddID(ctrUserCrashes, 1)
	// PM may itself be dead; that will surface elsewhere.
	_ = o.k.PostMessage(kernel.EpKernel, kernel.EpPM,
		kernel.Message{Type: proto.PMUserCrashed, A: int64(info.Victim)})
	return nil
}

func addStats(a, b seep.Stats) seep.Stats {
	return seep.Stats{
		BlocksIn:      a.BlocksIn + b.BlocksIn,
		BlocksOut:     a.BlocksOut + b.BlocksOut,
		CyclesIn:      a.CyclesIn + b.CyclesIn,
		CyclesOut:     a.CyclesOut + b.CyclesOut,
		WindowsOpened: a.WindowsOpened + b.WindowsOpened,
		WindowsClosed: a.WindowsClosed + b.WindowsClosed,
	}
}

// ComponentStats is the per-component measurement surface used by the
// evaluation harness.
type ComponentStats struct {
	Name string
	// Coverage is the cumulative recovery-window statistics (Table I).
	Coverage seep.Stats
	// BaseBytes, CloneBytes and MaxUndoLogBytes feed Table VI.
	BaseBytes, CloneBytes, MaxUndoLogBytes int
	// Recoveries is the number of times the component was recovered.
	Recoveries int
}

// Stats returns per-component statistics in endpoint order.
func (o *OS) Stats() []ComponentStats {
	out := make([]ComponentStats, 0, len(o.order))
	for _, ep := range o.order {
		s := o.slots[ep]
		out = append(out, ComponentStats{
			Name:            s.name,
			Coverage:        addStats(s.accum, s.window.Stats()),
			BaseBytes:       s.store.BaseBytes(),
			CloneBytes:      s.cloneResident,
			MaxUndoLogBytes: s.store.MaxLogBytes(),
			Recoveries:      s.recoveries,
		})
	}
	return out
}

// ComponentWindow exposes a component's live recovery window (fault
// injection needs to see window state).
func (o *OS) ComponentWindow(ep kernel.Endpoint) *seep.Window {
	if s := o.slots[ep]; s != nil {
		return s.window
	}
	return nil
}

// ComponentStore exposes a component's live store (fault injection
// corrupts state through it).
func (o *OS) ComponentStore(ep kernel.Endpoint) *memlog.Store {
	if s := o.slots[ep]; s != nil {
		return s.store
	}
	return nil
}

// ComponentNames maps endpoints to component names in endpoint order.
func (o *OS) ComponentNames() map[kernel.Endpoint]string {
	out := make(map[kernel.Endpoint]string, len(o.order))
	for _, ep := range o.order {
		out[ep] = o.slots[ep].name
	}
	return out
}

// SetAuditHook installs a hook run after every successfully completed
// component recovery. The consistency auditor (internal/audit) attaches
// here.
func (o *OS) SetAuditHook(h func()) { o.auditHook = h }

// ComponentOrder returns the recoverable component endpoints in
// endpoint order.
func (o *OS) ComponentOrder() []kernel.Endpoint {
	out := make([]kernel.Endpoint, len(o.order))
	copy(out, o.order)
	return out
}

// ComponentInstance exposes the live component object at ep (nil if
// none). The consistency auditor type-asserts its oracle accessors
// against it.
func (o *OS) ComponentInstance(ep kernel.Endpoint) Component {
	if s := o.slots[ep]; s != nil {
		return s.comp
	}
	return nil
}

// busyReporter is implemented by components that own their request loop
// (Looper) and know when work is in flight (e.g. the VFS worker pool).
type busyReporter interface {
	Busy() bool
}

// ComponentBusy reports whether the component at ep is mid-request:
// its tables may legitimately disagree with other compartments about
// the in-flight operation, so consistency oracles must exempt it.
func (o *OS) ComponentBusy(ep kernel.Endpoint) bool {
	s := o.slots[ep]
	if s == nil {
		return false
	}
	if s.inRequest {
		return true
	}
	if br, ok := s.comp.(busyReporter); ok && br.Busy() {
		return true
	}
	return false
}
