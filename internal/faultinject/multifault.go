package faultinject

import (
	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// Multi-fault campaigns go beyond the paper's one-failure-at-a-time
// evaluation: each boot is armed with N faults, including faults
// correlated with an earlier recovery and faults placed inside the
// recovery path itself. They exercise the cascade-tolerance sequencer
// (crash queueing, restart backoff, escalation, quarantine) that
// single-fault campaigns deliberately pin off.

// MultiInjection is one fault of a multi-fault plan.
type MultiInjection struct {
	Injection
	// Correlated delays arming until the machine has performed at least
	// one recovery: the fault manifests in the post-recovery window,
	// when a second failure is most likely in practice (recovery shifts
	// load and exercises cold paths).
	Correlated bool
	// DuringRecovery plants the fault inside the restart sequence
	// itself: it fires at the Occurrence-th restart attempt of any
	// component, crashing the recovery path (Server/Site are unused).
	DuringRecovery bool
	// Persistent re-fires the fault on every execution of the site
	// after it first triggers — a deterministic software bug that
	// restarting cannot clear. It is what drives a component into the
	// crash-storm budget and quarantine.
	Persistent bool
}

// MultiRunResult is the outcome of one multi-fault run.
type MultiRunResult struct {
	Injections  []MultiInjection
	Outcome     Outcome
	Triggered   int
	TestsFailed int
	Recoveries  int
	Quarantines int
	Reason      string
	// Seed is the per-run seed; an inconsistent run replays exactly
	// from it.
	Seed uint64
	// Consistent reports whether every audit pass found the
	// cross-server invariants intact; Violations lists the failures.
	Consistent bool
	Violations []string
}

// RunMulti boots a fresh machine with the cascade sequencer enabled,
// arms every injection, runs the suite and classifies the outcome.
// Transport interposition stays off unless one of the injections is an
// IPC fault.
func RunMulti(policy seep.Policy, seed uint64, injs []MultiInjection) MultiRunResult {
	return RunMultiWith(policy, seed, injs, IPCOptions{})
}

// RunMultiWith is RunMulti with transport fault options applied.
func RunMultiWith(policy seep.Policy, seed uint64, injs []MultiInjection, ipc IPCOptions) MultiRunResult {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	var report testsuite.Report

	armsIPC := false
	for _, inj := range injs {
		if inj.Type.IPC() {
			armsIPC = true
		}
	}
	ipc = ipc.normalized(armsIPC)
	sys := boot.Boot(boot.Options{
		Config:     ipc.apply(core.Config{Policy: policy, Seed: seed}, seed),
		Registry:   reg,
		Heartbeats: true,
	}, testsuite.RunnerInit(&report))
	return finishRunMulti(sys, &report, injs, seed, injs, nil)
}

// finishRunMulti arms every injection on a prepared machine —
// cold-booted or forked from a warm image — runs the suite and
// classifies the outcome. armed carries occurrences counted from the
// machine's current position (equal to injs on cold boots; plain
// occurrences shifted past the quiescence barrier on warm forks); the
// result always reports injs as planned. A non-nil elider lets a warm
// fork splice a recorded suffix once every armed fault has resolved (see
// elide.go); cold boots pass nil.
func finishRunMulti(sys *boot.System, report *testsuite.Report, injs []MultiInjection, seed uint64, armed []MultiInjection, el *elider) MultiRunResult {
	k := sys.Kernel()
	rng := sim.NewRNG(seed ^ 0x3A17F0C57)
	triggered := make([]bool, len(armed))
	remaining := make([]int, len(armed))
	for i, inj := range armed {
		remaining[i] = inj.Occurrence
	}

	k.SetPointHook(func(ep kernel.Endpoint, name, site string) {
		for i := range armed {
			inj := &armed[i]
			if inj.DuringRecovery || (triggered[i] && !inj.Persistent) {
				continue
			}
			if name != inj.Server || site != inj.Site {
				continue
			}
			if inj.Correlated && sys.Recoveries == 0 {
				// Armed only once the first recovery has happened.
				continue
			}
			if !triggered[i] {
				remaining[i]--
				if remaining[i] > 0 {
					continue
				}
				triggered[i] = true
			}
			// At most one fault manifests per point execution; a crash
			// unwinds the component anyway. A persistent fault keeps
			// firing on every later execution of its site.
			applyFault(sys, ep, inj.Type, rng)
			return
		}
	})

	restarts := 0
	sys.SetRestartHook(func(ep kernel.Endpoint, attempt int) {
		restarts++
		for i := range armed {
			inj := &armed[i]
			if triggered[i] || !inj.DuringRecovery {
				continue
			}
			if restarts < inj.Occurrence {
				continue
			}
			triggered[i] = true
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
		// triggered and quiesced no further restart can happen.
		hasPersistent := false
		for _, inj := range armed {
			if inj.Persistent {
				hasPersistent = true
			}
		}
		el.ready = func() bool {
			if hasPersistent {
				return false
			}
			for i := range armed {
				if !armed[i].DuringRecovery && !triggered[i] {
					return false
				}
			}
			return true
		}
	}
	res := runElidable(sys, report, aud, el)
	nTriggered := 0
	for _, tr := range triggered {
		if tr {
			nTriggered++
		}
	}
	out := MultiRunResult{
		Injections:  injs,
		Outcome:     classifyMulti(res, report, sys.Quarantines),
		Triggered:   nTriggered,
		TestsFailed: report.Failed,
		Recoveries:  sys.Recoveries,
		Quarantines: sys.Quarantines,
		Reason:      res.Reason,
		Seed:        seed,
	}
	out.Consistent = aud.Consistent()
	for _, v := range aud.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}

// classifyMulti extends the paper's four classes with degraded-pass:
// the machine survived only by quarantining a component.
func classifyMulti(res kernel.Result, report *testsuite.Report, quarantines int) Outcome {
	switch res.Outcome {
	case kernel.OutcomeCompleted:
		if quarantines > 0 {
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

// MultiCampaignConfig parameterizes a multi-fault campaign.
type MultiCampaignConfig struct {
	Policy seep.Policy
	Model  Model
	// Faults is the number of faults armed per boot (>= 2).
	Faults int
	// Runs is the number of boots.
	Runs int
	Seed uint64
	// Workers bounds concurrent boots (0 = one per CPU, 1 = serial);
	// results are bit-identical for any worker count.
	Workers int
	// IPC configures transport fault interposition for every run of the
	// campaign (zero value: off; forced on when a plan arms IPC
	// faults).
	IPC IPCOptions
	// Journal, when set, makes the campaign crash-tolerant exactly as
	// in CampaignConfig: journaled runs are skipped, new ones appended,
	// and resumed aggregates are bit-identical to uninterrupted ones.
	Journal *Journal
	// OnResult observes every run result in plan order (including
	// journal-served ones); used to emit replayable traces.
	OnResult func(index int, rr MultiRunResult)
	// OnServe observes every run's serving decision in plan order
	// alongside OnResult, exactly as in CampaignConfig.
	OnServe func(index int, decision string)
}

// MultiCampaignResult aggregates a multi-fault campaign: one row of the
// cascade survivability table.
type MultiCampaignResult struct {
	Policy seep.Policy
	Model  Model
	Faults int
	Runs   int
	Counts map[Outcome]int
	// Untriggered counts runs where no armed fault fired at all; they
	// are excluded from Runs and Counts.
	Untriggered int
	// Consistent counts triggered runs whose every audit pass found the
	// cross-server invariants intact; InconsistentSeeds lists the
	// per-run seeds of the others for exact replay.
	Consistent        int
	InconsistentSeeds []uint64
}

// Percent reports the share of runs with the given outcome.
func (c MultiCampaignResult) Percent(o Outcome) float64 {
	if c.Runs == 0 {
		return 0
	}
	return 100 * float64(c.Counts[o]) / float64(c.Runs)
}

// ConsistentPercent reports the share of runs the auditor classified
// consistent.
func (c MultiCampaignResult) ConsistentPercent() float64 {
	if c.Runs == 0 {
		return 0
	}
	return 100 * float64(c.Consistent) / float64(c.Runs)
}

// PlanMultiCampaign derives the per-run injection lists from a profile.
// The first fault of each run is an ordinary injection; each further
// fault is drawn as plain, correlated, or during-recovery with equal
// probability, so every campaign mixes independent double faults,
// recovery-window faults and faults in the recovery path itself.
func PlanMultiCampaign(cfg MultiCampaignConfig, profile []SiteProfile) [][]MultiInjection {
	faults := cfg.Faults
	if faults < 2 {
		faults = 2
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 20
	}
	var sites []SiteProfile
	for _, sp := range profile {
		if sp.Candidate() {
			sites = append(sites, sp)
		}
	}
	if len(sites) == 0 {
		return nil
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x9E3779B9)
	plans := make([][]MultiInjection, 0, runs)
	for r := 0; r < runs; r++ {
		plan := make([]MultiInjection, 0, faults)
		for f := 0; f < faults; f++ {
			sp := sites[rng.Intn(len(sites))]
			reach := sp.Total - sp.Boot
			mi := MultiInjection{Injection: Injection{
				Server:     sp.Server,
				Site:       sp.Site,
				Occurrence: sp.Boot + 1 + rng.Intn(reach),
				Type:       pickType(cfg.Model, rng),
			}}
			if f > 0 {
				switch rng.Intn(4) {
				case 1:
					mi.Correlated = true
					// Correlated faults count occurrences from the first
					// recovery onward; keep the trigger close so the
					// fault lands inside the post-recovery window.
					mi.Occurrence = 1 + rng.Intn(3)
				case 2:
					mi.DuringRecovery = true
					// Fire at one of the first restart attempts.
					mi.Occurrence = 1 + rng.Intn(2)
					// Only fail-stop semantics make sense inside the
					// restart path.
					mi.Type = FaultCrash
				case 3:
					// A deterministic bug: the crash re-fires after every
					// restart, driving the component into quarantine.
					mi.Persistent = true
					mi.Type = FaultCrash
				}
			}
			plan = append(plan, mi)
		}
		plans = append(plans, plan)
	}
	return plans
}

// RunMultiCampaign executes the whole multi-fault campaign. As in
// RunCampaign, one machine is booted and captured per configuration
// class and every run forks it, bit-identically to cold boots.
func RunMultiCampaign(cfg MultiCampaignConfig, profile []SiteProfile) MultiCampaignResult {
	result, _ := RunMultiCampaignWithStats(cfg, profile)
	return result
}

// RunMultiCampaignWithStats is RunMultiCampaign plus the warm-plane
// serving statistics. The campaign result is identical to
// RunMultiCampaign's.
func RunMultiCampaignWithStats(cfg MultiCampaignConfig, profile []SiteProfile) (MultiCampaignResult, PlaneStats) {
	plans := PlanMultiCampaign(cfg, profile)
	result := MultiCampaignResult{
		Policy: cfg.Policy,
		Model:  cfg.Model,
		Faults: cfg.Faults,
		Counts: make(map[Outcome]int),
	}
	if result.Faults < 2 {
		result.Faults = 2
	}
	runner := newMultiRunner(cfg, plans)
	defer runner.close()
	decisions := make([]string, len(plans))
	results := parallel.Map(cfg.Workers, len(plans), func(i int) MultiRunResult {
		if cfg.Journal != nil {
			if rr, ok := cfg.Journal.LookupMulti(i); ok {
				decisions[i] = ServingJournal
				return rr
			}
		}
		rr, decision := runner.runMulti(cfg.Seed+uint64(i)*104729, plans[i])
		decisions[i] = decision
		if cfg.Journal != nil {
			cfg.Journal.RecordMulti(i, rr)
		}
		return rr
	})
	for i, rr := range results {
		if cfg.OnServe != nil {
			cfg.OnServe(i, decisions[i])
		}
		if cfg.OnResult != nil {
			cfg.OnResult(i, rr)
		}
		if rr.Triggered == 0 {
			result.Untriggered++
			continue
		}
		result.Runs++
		result.Counts[rr.Outcome]++
		if rr.Consistent {
			result.Consistent++
		} else {
			result.InconsistentSeeds = append(result.InconsistentSeeds, rr.Seed)
		}
	}
	return result, runner.stats.snapshot()
}
