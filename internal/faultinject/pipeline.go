package faultinject

// The campaign pipeline: Plan → Serve → Execute → Classify. Every run of
// every campaign — single-fault, multi-fault, background-rate sweep —
// is one runSpec taken down one path: campaignRunner.run picks how the
// machine comes to exist (a fork from the snapshot ladder, see ladder.go,
// or a cold boot), execute arms the faults and drives it, classify maps
// how it ended to the paper's outcome classes, and campaign.drive fans a
// plan of them out and reduces the results in plan order.
//
// Warm serving. Booting the machine and installing the ~96 suite binaries
// dominates campaign run time, yet the boot trace of a fault-free machine
// is seed-independent: the kernel RNG is never drawn before the first
// fault and the IPC plane draws nothing while no rates are set. A runner
// therefore boots ONE pathfinder machine per configuration class and
// forks per-run copies from its snapshot ladder: armed runs start from
// the deepest held mid-suite rung strictly before their trigger,
// skipping the shared fault-free prefix entirely, with outcomes
// bit-identical to cold boots. PlaneOptions.ColdBoot keeps cold boots
// available as the equivalence oracle.
//
// Runs whose transport carries background fault rates are never forked:
// their boot trace consumes the per-run fault stream, so each needs its
// own cold boot. The reliability layer alone (timeouts/retries, zero
// rates) is deterministic during a fault-free boot and forks fine.

import (
	"maps"
	"sync"

	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/seep"
	"repro/internal/servers/rs"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// PlaneOptions selects how a campaign's runs are served. Results are
// bit-identical for every setting; the zero value is the fast path.
type PlaneOptions struct {
	// ColdBoot boots every run from scratch instead of forking a warm
	// image (-coldboot): the warm-fork equivalence oracle.
	ColdBoot bool
	// NoElide executes every warm run to its end (-noelide): no suffix
	// table, no tail splice, no wedge certificate — the elision
	// bit-identity oracle.
	NoElide bool
}

// runKind is the campaign flavour of a run. It pins the machine
// configuration, the fault RNG salt and the classification rule.
type runKind int

const (
	// kindSingle reproduces the paper's setup, which assumes one failure
	// at a time: the cascade-tolerance sequencer (backoff, escalation,
	// quarantine) is pinned off so Tables II/III keep the paper's outcome
	// semantics.
	kindSingle runKind = iota
	// kindMulti runs with the sequencer enabled and classifies a run that
	// survived by quarantine as degraded.
	kindMulti
	// kindBackground arms nothing: background transport rates fire
	// repeatedly, so the sequencer stays enabled as in kindMulti, but the
	// paper's four classes apply.
	kindBackground
)

// faultSalt separates the fault RNG stream (corruption targets) from the
// machine seed; the values are frozen with the recorded campaigns.
func (k runKind) faultSalt() uint64 {
	if k == kindSingle {
		return 0xFA0175EED
	}
	return 0x3A17F0C57
}

// runSpec describes one run: the kind, the planned faults (empty for
// background runs, exactly one for single-fault runs) and the transport
// options as configured.
type runSpec struct {
	kind   runKind
	faults []MultiInjection
	ipc    IPCOptions
}

// class is the configuration class of the run: a background rate or an
// armed transport fault turns the interposition plane on (see
// IPCOptions).
func (s runSpec) class() planeClass {
	c := planeClass{kind: s.kind, ipc: s.ipc, plane: s.ipc.Faults.Enabled()}
	for _, inj := range s.faults {
		c.plane = c.plane || inj.Type.IPC()
	}
	return c
}

// planeClass is everything besides policy and seed that shapes a
// machine's configuration — what one pathfinder can stand in for.
type planeClass struct {
	kind runKind
	ipc  IPCOptions
	// plane turns the transport's interposition plane on; ipc applies
	// only with it.
	plane bool
}

// config is the machine configuration of one run (or pathfinder) of the
// class.
func (c planeClass) config(policy seep.Policy, seed uint64) core.Config {
	cfg := core.Config{Policy: policy, Seed: seed}
	if c.kind == kindSingle {
		cfg.DisableQuarantine = true
		cfg.RestartBackoffBase = -1
		cfg.RecoveryDecay = -1
		cfg.MaxRestartAttempts = 1
	}
	if c.plane {
		cfg.IPCPlane = true
		cfg.IPCFaults = c.ipc.Faults
		cfg.IPCFaultSeed = c.ipc.Seed ^ seed
	}
	return cfg
}

// Test hooks: the runner forks and builds ladders through these
// indirections so the fallback paths (fork failure, capture failure)
// can be exercised deterministically.
var (
	forkSnapshot = func(s *boot.Snapshot, p boot.ForkParams, prog usr.Program) (*boot.System, error) {
		return s.Fork(p, prog)
	}
	buildLadder = newLadder
)

// suiteOptions is how every campaign machine boots: the suite registry
// and heartbeats on.
func suiteOptions(cfg core.Config) boot.Options {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return boot.Options{Config: cfg, Registry: reg, Heartbeats: true}
}

// campaignRunner serves the runs of one campaign. Serving is
// concurrency-safe: ladders are built, stats accumulated and arenas
// handed out under mu, the ladder walk has its own lock, forks are
// read-only on snapshots.
type campaignRunner struct {
	policy seep.Policy
	// seed is the campaign seed the pathfinders boot with (any would do:
	// the fault-free trace is seed-independent).
	seed uint64
	opts PlaneOptions

	mu sync.Mutex
	// ladders holds one ladder per configuration class served so far. A
	// nil entry records a pathfinder that never reached a capturable boot
	// barrier.
	ladders map[planeClass]*ladder
	stats   PlaneStats
	// arenas are the kernel arenas no run is using: a run builds its
	// machine on one and gives it back, so a worker's machine takes its
	// coroutines and tables from the one it ran before (kernel.Arena).
	// There are as many as runs were ever in flight at once.
	arenas []*kernel.Arena
}

// plane returns the ladder serving the runs of one configuration class,
// building it on first use, or the reason the class boots cold.
func (r *campaignRunner) plane(c planeClass) (*ladder, string) {
	switch {
	case r.opts.ColdBoot:
		return nil, FallbackColdBootPinned
	case c.ipc.Faults.Enabled():
		return nil, FallbackBackgroundRates
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l, built := r.ladders[c]
	if !built {
		l = buildLadder(c.config(r.policy, r.seed), r.opts.NoElide)
		if r.ladders == nil {
			r.ladders = make(map[planeClass]*ladder)
		}
		r.ladders[c] = l
	}
	if l == nil {
		return nil, FallbackNoSnapshot
	}
	return l, ""
}

// Stats returns the serving statistics accumulated so far.
func (r *campaignRunner) Stats() PlaneStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Fallbacks = maps.Clone(s.Fallbacks)
	s.ElisionFallbacks = maps.Clone(s.ElisionFallbacks)
	return s
}

// close tears down the pathfinder machines and stops the arenas'
// coroutines. Snapshots and recorded rungs stay valid; call it when the
// campaign is done forking.
func (r *campaignRunner) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.ladders {
		if l != nil {
			l.Close()
		}
	}
	for _, a := range r.arenas {
		a.Close()
	}
	r.arenas = nil
}

// run serves one run on an arena no other run is using.
func (r *campaignRunner) run(seed uint64, spec runSpec) (MultiRunResult, Serving) {
	r.mu.Lock()
	var a *kernel.Arena
	if n := len(r.arenas); n > 0 {
		a, r.arenas = r.arenas[n-1], r.arenas[:n-1]
	} else {
		a = new(kernel.Arena)
	}
	r.mu.Unlock()
	res, sv := r.runOn(a, seed, spec)
	r.mu.Lock()
	r.arenas = append(r.arenas, a)
	r.mu.Unlock()
	return res, sv
}

// runOn serves one run with its machine built on arena a (nil: a private
// one): it forks the machine from the deepest sound rung of the class's
// ladder — or boots it cold, charging the reason — executes it, releases
// it and accounts the serving decision.
func (r *campaignRunner) runOn(a *kernel.Arena, seed uint64, spec runSpec) (MultiRunResult, Serving) {
	class := spec.class()
	var (
		report testsuite.Report
		sys    *boot.System
		base   []int
		el     *elider
	)
	l, reason := r.plane(class)
	if l != nil {
		if st, ok := l.serve(spec.faults); !ok {
			reason = FallbackPreBarrier
		} else if f, err := forkSnapshot(st.snap, forkParams(seed, class, a), testsuite.RunnerResumeFrom(&report, st.prefix)); err != nil {
			reason = FallbackForkFailed
		} else {
			sys, base, el = f, st.base, &elider{l: l, sv: Serving{Plane: PlaneForked, Rung: st.rung}}
		}
	}
	if sys == nil {
		sys = boot.BootIn(a, suiteOptions(class.config(r.policy, seed)), testsuite.RunnerInit(&report))
	}
	res := execute(sys, &report, spec, seed, base, el)
	sys.Kernel().Release()
	sv := Serving{Plane: PlaneCold, Fallback: reason}
	if el != nil {
		sv = el.sv
	}
	r.mu.Lock()
	r.stats.add(sv)
	r.mu.Unlock()
	return res, sv
}

// runCold is run without a plane: the cold boot the public single-run
// entry points (and Trace.Replay) perform, on a private arena.
func runCold(policy seep.Policy, seed uint64, spec runSpec) MultiRunResult {
	r := campaignRunner{policy: policy, opts: PlaneOptions{ColdBoot: true}}
	res, _ := r.runOn(nil, seed, spec)
	return res
}

// forkParams derives the per-run seed identity, matching what
// planeClass.config stamps into a cold boot's Config, and names the
// arena the fork is built on.
func forkParams(seed uint64, c planeClass, a *kernel.Arena) boot.ForkParams {
	p := boot.ForkParams{Seed: seed, Arena: a}
	if c.plane {
		p.IPCFaultSeed = c.ipc.Seed ^ seed
	}
	return p
}

// execute arms spec's faults on a prepared machine — cold-booted or
// forked from a ladder rung — runs the suite and classifies how it
// ended. base[i] is how many of fault i's occurrences the serving rung
// has consumed (nil on cold boots): plain occurrences are planned from
// machine start and count down from the rung. Correlated and
// during-recovery occurrences count from the first recovery or restart —
// always after any plain trigger, hence after the rung — and are never
// translated: their base is zero. A non-nil elider lets
// a warm fork splice a recorded suffix or certify a hang once no armed
// fault can fire any more (see elide.go); cold boots pass nil. The result
// is the run's record, whatever its kind.
func execute(sys *boot.System, report *testsuite.Report, spec runSpec, seed uint64, base []int, el *elider) MultiRunResult {
	faults := spec.faults
	rng := sim.NewRNG(seed ^ spec.kind.faultSalt())
	type armState struct {
		remaining int
		triggered bool
	}
	armed := make([]armState, len(faults))
	persistent := false
	for i, inj := range faults {
		armed[i].remaining = inj.Occurrence
		if base != nil {
			armed[i].remaining -= base[i]
		}
		persistent = persistent || inj.Persistent
	}

	// The hook is armed only at the sites of faults that can still fire
	// at a point, and detached once none can: every other point costs the
	// kernel one comparison per armed site, or none at all. Its effects
	// are all at matching sites, so where it runs moves no simulated byte.
	k := sys.Kernel()
	var hook func(ep kernel.Endpoint, name, site string)
	arm := func() {
		var sites []string
		for i := range faults {
			inj := &faults[i]
			if inj.DuringRecovery || (armed[i].triggered && !inj.Persistent) {
				continue
			}
			sites = append(sites, inj.Site)
		}
		if len(sites) == 0 {
			k.SetPointHook(nil)
			return
		}
		k.SetPointHook(hook, sites...)
	}
	hook = func(ep kernel.Endpoint, name, site string) {
		for i := range faults {
			inj, st := &faults[i], &armed[i]
			if inj.DuringRecovery || (st.triggered && !inj.Persistent) {
				continue
			}
			if name != inj.Server || site != inj.Site {
				continue
			}
			if inj.Correlated && sys.Recoveries == 0 {
				// Armed only once the first recovery has happened.
				continue
			}
			if !st.triggered {
				st.remaining--
				if st.remaining > 0 {
					continue
				}
				st.triggered = true
				if !inj.Persistent {
					// Before the fault manifests: a crash does not return.
					arm()
				}
			}
			// At most one fault manifests per point execution; a crash
			// unwinds the component anyway. A persistent fault keeps
			// firing on every later execution of its site.
			applyFault(sys, ep, inj.Type, rng)
			return
		}
	}
	arm()

	restarts := 0
	sys.SetRestartHook(func(kernel.Endpoint, int) {
		restarts++
		for i := range faults {
			if armed[i].triggered || !faults[i].DuringRecovery || restarts < faults[i].Occurrence {
				continue
			}
			armed[i].triggered = true
			// The hook runs inside the restart sequence: this panic is a
			// fault in the recovery path, forcing the sequencer to
			// escalate (retry, then quarantine).
			panic("edfi: injected fault in recovery path")
		}
	})

	aud := audit.Attach(sys.OS)
	if el != nil {
		// The suffix is provably fault-free only when every fault that
		// could still fire has resolved: persistent faults re-fire on
		// every site execution, so they never elide; an untriggered
		// correlated fault arms after the first recovery and could fire
		// in the suffix, so it must have triggered too. During-recovery
		// faults need a restart to fire, and with everything else
		// triggered and quiesced no further restart can happen. (Armed-
		// but-unfired transport faults and reply overrides are blocked by
		// the quiescence gate.)
		el.ready = func() bool {
			if persistent {
				return false
			}
			for i := range faults {
				if !faults[i].DuringRecovery && !armed[i].triggered {
					return false
				}
			}
			return true
		}
	}
	res := runElidable(sys, report, aud, el)
	out := MultiRunResult{
		Injections:  faults,
		Outcome:     classify(spec.kind, res, report, sys.Quarantines),
		TestsFailed: report.Failed,
		Recoveries:  sys.Recoveries,
		Quarantines: sys.Quarantines,
		Reason:      res.Reason,
		Seed:        seed,
		Consistent:  aud.Consistent(),
	}
	for _, st := range armed {
		if st.triggered {
			out.Triggered++
		}
	}
	for _, v := range aud.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}

// applyFault manifests one armed fault inside the faulty component's
// execution (the point hook runs in the component's context, so a
// panic here fail-stops exactly that component).
func applyFault(sys *boot.System, ep kernel.Endpoint, t FaultType, rng *sim.RNG) {
	k := sys.Kernel()
	switch t {
	case FaultCrash:
		panic("edfi: injected fail-stop fault")
	case FaultHang:
		// The component spins until the heartbeat deadline passes;
		// detection converts the hang into a fail-stop kill.
		k.Clock().Advance(2 * rs.HeartbeatPeriod)
		panic("edfi: hung component killed by heartbeat detector")
	case FaultCorrupt:
		if st := sys.ComponentStore(ep); st != nil {
			st.CorruptRandom(rng)
		}
	case FaultWrongErrno:
		k.OverrideNextReplyErrno(ep, kernel.EIO)
	case FaultNoop:
		// Fault present but never manifests.
	case FaultIPCDrop:
		k.ArmIPCFault(ep, kernel.IPCDrop)
	case FaultIPCDup:
		k.ArmIPCFault(ep, kernel.IPCDup)
	case FaultIPCDelay:
		k.ArmIPCFault(ep, kernel.IPCDelay)
	case FaultIPCReorder:
		k.ArmIPCFault(ep, kernel.IPCReorder)
	case FaultIPCCorrupt:
		k.ArmIPCFault(ep, kernel.IPCCorrupt)
	}
}

// classify maps a run result and suite report to the paper's four
// outcome classes, which multi-fault runs extend with degraded-pass: the
// machine survived only by quarantining a component.
func classify(kind runKind, res kernel.Result, report *testsuite.Report, quarantines int) Outcome {
	switch res.Outcome {
	case kernel.OutcomeCompleted:
		if kind == kindMulti && quarantines > 0 {
			return OutcomeDegradedPass
		}
		if report.Complete() && report.Failed == 0 {
			return OutcomePass
		}
		return OutcomeFail
	case kernel.OutcomeShutdown:
		return OutcomeShutdown
	default:
		return OutcomeCrash
	}
}

// Tally aggregates classified runs: one row of a survivability table.
type Tally struct {
	Runs   int
	Counts map[Outcome]int
	// Untriggered counts runs none of whose planned faults fired; they are
	// excluded from Runs and Counts (paper: untriggered faults would
	// inflate the statistics).
	Untriggered int
	// Consistent counts triggered runs whose every audit pass (after each
	// completed recovery, plus the final pass on completed runs) found
	// the cross-server invariants intact; InconsistentSeeds lists the
	// per-run seeds of the others, so any inconsistent run replays
	// exactly.
	Consistent        int
	InconsistentSeeds []uint64
}

// newTally returns an empty tally; Counts is never nil in a campaign's
// result, whatever it counted.
func newTally() Tally { return Tally{Counts: make(map[Outcome]int)} }

// add counts one run, as untriggered unless triggered.
func (t *Tally) add(run MultiRunResult, triggered bool) {
	if !triggered {
		t.Untriggered++
		return
	}
	t.Runs++
	t.Counts[run.Outcome]++
	if run.Consistent {
		t.Consistent++
	} else {
		t.InconsistentSeeds = append(t.InconsistentSeeds, run.Seed)
	}
}

// Percent reports the share of runs with the given outcome.
func (t Tally) Percent(o Outcome) float64 {
	if t.Runs == 0 {
		return 0
	}
	return 100 * float64(t.Counts[o]) / float64(t.Runs)
}

// ConsistentPercent reports the share of runs the auditor classified
// consistent.
func (t Tally) ConsistentPercent() float64 {
	if t.Runs == 0 {
		return 0
	}
	return 100 * float64(t.Consistent) / float64(t.Runs)
}

// campaign is a planned campaign as the driver sees it: n independent
// runs, where they are journaled and who observes them.
type campaign struct {
	n, workers int
	// journal, when set, makes the campaign crash-tolerant.
	journal *Journal
	// onResult, when set, observes every run in plan order.
	onResult func(int, MultiRunResult, Serving)
	// run executes run i; tally reduces its record.
	run   func(i int) (MultiRunResult, Serving)
	tally func(i int, run MultiRunResult)
}

// drive executes the campaign. Runs are independent machines (per-run
// seed), so they fan out across the parallel engine; journaled runs are
// skipped and their stored record used verbatim, new ones appended. The
// observer and the tally then see every run in plan order, so the
// aggregate is bit-identical for any worker count and for a resumed
// campaign.
func (c campaign) drive() {
	servings := make([]Serving, c.n)
	runs := parallel.Map(c.workers, c.n, func(i int) MultiRunResult {
		if c.journal != nil {
			if run, ok := c.journal.Lookup(i); ok {
				servings[i] = Serving{Plane: PlaneJournal}
				return run
			}
		}
		run, sv := c.run(i)
		servings[i] = sv
		if c.journal != nil {
			c.journal.Record(i, run)
		}
		return run
	})
	for i, run := range runs {
		if c.onResult != nil {
			c.onResult(i, run, servings[i])
		}
		c.tally(i, run)
	}
}
