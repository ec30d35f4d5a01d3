package faultinject

import (
	"repro/internal/seep"
	"repro/internal/sim"
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
	Correlated bool `json:",omitempty"`
	// DuringRecovery plants the fault inside the restart sequence
	// itself: it fires at the Occurrence-th restart attempt of any
	// component, crashing the recovery path (Server/Site are unused).
	DuringRecovery bool `json:",omitempty"`
	// Persistent re-fires the fault on every execution of the site
	// after it first triggers — a deterministic software bug that
	// restarting cannot clear. It is what drives a component into the
	// crash-storm budget and quarantine.
	Persistent bool `json:",omitempty"`
}

// MultiRunResult is the one record of a run, of any campaign kind: what
// the journal stores, a trace carries and a campaign's OnResult sees.
// RunResult is its single-fault view.
type MultiRunResult struct {
	// Injections is the run's plan: exactly one plain injection for a
	// single-fault run, none for a background-rate sweep run.
	Injections []MultiInjection
	Outcome    Outcome
	// Triggered counts the injections that fired.
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
	Violations []string `json:",omitempty"`
}

// RunMultiWith boots a fresh machine with the cascade sequencer enabled
// and the transport options ipc applied, arms every injection, runs the
// suite and classifies the outcome. With zero options, transport
// interposition stays off unless one of the injections is an IPC fault.
func RunMultiWith(policy seep.Policy, seed uint64, injs []MultiInjection, ipc IPCOptions) MultiRunResult {
	return runCold(policy, seed, multiSpec(injs, ipc))
}

// multiSpec describes a multi-fault run.
func multiSpec(injs []MultiInjection, ipc IPCOptions) runSpec {
	return runSpec{kind: kindMulti, faults: injs, ipc: ipc}
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
	// OnResult observes every run and its serving decision in plan order
	// (including journal-served ones), exactly as in CampaignConfig.
	OnResult func(index int, run MultiRunResult, sv Serving)
	// Plane selects how the runs are served, exactly as in
	// CampaignConfig.
	Plane PlaneOptions
}

// MultiCampaignResult aggregates a multi-fault campaign: one row of the
// cascade survivability table. Untriggered counts runs where no armed
// fault fired at all.
type MultiCampaignResult struct {
	Policy seep.Policy
	Model  Model
	Faults int
	Tally
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
// RunCampaign, one machine is booted per configuration class and every
// run forks its snapshot ladder, bit-identically to cold boots.
func RunMultiCampaign(cfg MultiCampaignConfig, profile []SiteProfile) (MultiCampaignResult, PlaneStats) {
	plans := PlanMultiCampaign(cfg, profile)
	result := MultiCampaignResult{
		Policy: cfg.Policy,
		Model:  cfg.Model,
		Faults: max(cfg.Faults, 2),
		Tally:  newTally(),
	}
	runner := newMultiRunner(cfg, plans)
	defer runner.close()
	campaign{
		n: len(plans), workers: cfg.Workers, journal: cfg.Journal, onResult: cfg.OnResult,
		run: func(i int) (MultiRunResult, Serving) {
			return runner.run(cfg.Seed+uint64(i)*104729, multiSpec(plans[i], cfg.IPC))
		},
		tally: func(_ int, run MultiRunResult) { result.add(run, run.Triggered > 0) },
	}.drive()
	return result, runner.Stats()
}

// newMultiRunner prepares the plane of a multi-fault campaign, building
// up front the ladder of every configuration class the plans contain.
func newMultiRunner(cfg MultiCampaignConfig, plans [][]MultiInjection) *campaignRunner {
	r := &campaignRunner{policy: cfg.Policy, seed: cfg.Seed, opts: cfg.Plane}
	for _, plan := range plans {
		r.plane(multiSpec(plan, cfg.IPC).class())
	}
	return r
}
