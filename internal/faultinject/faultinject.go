// Package faultinject is the reproduction's EDFI analogue (Giuffrida et
// al., PRDC 2013): it enumerates fault-injection candidates in the OS
// servers via their instrumentation points, profiles which candidates
// the prototype test suite actually reaches after boot, and runs
// one-fault-per-boot campaigns whose outcomes are classified exactly as
// in the paper's survivability experiments (pass / fail / shutdown /
// crash, §VI-B).
package faultinject

import (
	"fmt"
	"sort"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
)

// RunLimit bounds one fault-injection run in virtual cycles.
const RunLimit sim.Cycles = 4_000_000_000

// Model selects the injected fault mix.
type Model int

const (
	// FailStop injects only immediately-crashing faults (NULL-pointer
	// dereference analogues) — the fault model OSIRIS is designed for.
	FailStop Model = iota + 1
	// FullEDFI injects the full realistic software fault mix, including
	// fail-silent corruption, hangs, wrong error returns and faults
	// that do not manifest.
	FullEDFI
	// IPCMix injects transport-level message faults: drops, duplicates,
	// delays, reorders and payload corruption of the faulty component's
	// next outgoing message. It exercises the unreliable-IPC tolerance
	// layer rather than the component restart path.
	IPCMix
)

// String names the model.
func (m Model) String() string {
	switch m {
	case FailStop:
		return "fail-stop"
	case IPCMix:
		return "ipc-mix"
	default:
		return "full-EDFI"
	}
}

// MarshalText renders the model by name in JSON reports.
func (m Model) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses the model by name (the String form), so JSON
// trace and journal records round-trip.
func (m *Model) UnmarshalText(text []byte) error {
	for _, v := range []Model{FailStop, FullEDFI, IPCMix} {
		if v.String() == string(text) {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("faultinject: unknown model %q", text)
}

// FaultType is one injectable fault behaviour.
type FaultType int

const (
	// FaultCrash fail-stops the component at the site.
	FaultCrash FaultType = iota + 1
	// FaultHang spins the component; the Recovery Server's heartbeat
	// mechanism detects it and converts it into a fail-stop (§II-E).
	FaultHang
	// FaultCorrupt silently corrupts one value in the component state,
	// bypassing the undo log (fail-silent data corruption).
	FaultCorrupt
	// FaultWrongErrno makes the component's next reply carry a wrong
	// error code.
	FaultWrongErrno
	// FaultNoop models injected faults that never manifest (dead value
	// corrupted, unreachable branch flipped).
	FaultNoop
	// FaultIPCDrop arms a one-shot drop of the component's next
	// outgoing message at the transport.
	FaultIPCDrop
	// FaultIPCDup arms a one-shot duplication of the next outgoing
	// message.
	FaultIPCDup
	// FaultIPCDelay arms a one-shot delay of the next outgoing message.
	FaultIPCDelay
	// FaultIPCReorder arms a one-shot queue-jump of the next outgoing
	// message.
	FaultIPCReorder
	// FaultIPCCorrupt arms a one-shot payload corruption of the next
	// outgoing message.
	FaultIPCCorrupt
)

// IPC reports whether the fault manifests at the message transport
// (rather than inside the component).
func (t FaultType) IPC() bool { return t >= FaultIPCDrop && t <= FaultIPCCorrupt }

// faultSpec is one entry of the fault-type registry: the type, its
// display name, and its draw weight in each model's mix (a model absent
// from Weights never draws the type).
type faultSpec struct {
	Type    FaultType
	Name    string
	Weights map[Model]int
}

// faultRegistry is the single source of truth for fault types: String
// and pickType both read it, so a type added here can never fall
// through to a stale name or be silently excluded from a mix. The
// FullEDFI weights loosely follow the realistic software fault mix EDFI
// draws from; order and weights of the pre-existing entries are frozen
// — pickType's draw sequence, and therefore every planned campaign, is
// bit-identical to the historical table-free code.
var faultRegistry = []faultSpec{
	{FaultCrash, "crash", map[Model]int{FailStop: 100, FullEDFI: 35}},
	{FaultHang, "hang", map[Model]int{FullEDFI: 10}},
	{FaultCorrupt, "corrupt", map[Model]int{FullEDFI: 25}},
	{FaultWrongErrno, "wrong-errno", map[Model]int{FullEDFI: 15}},
	{FaultNoop, "noop", map[Model]int{FullEDFI: 15}},
	{FaultIPCDrop, "ipc-drop", map[Model]int{IPCMix: 30}},
	{FaultIPCDup, "ipc-dup", map[Model]int{IPCMix: 15}},
	{FaultIPCDelay, "ipc-delay", map[Model]int{IPCMix: 20}},
	{FaultIPCReorder, "ipc-reorder", map[Model]int{IPCMix: 15}},
	{FaultIPCCorrupt, "ipc-corrupt", map[Model]int{IPCMix: 20}},
}

// String names the fault type from the registry.
func (t FaultType) String() string {
	for _, s := range faultRegistry {
		if s.Type == t {
			return s.Name
		}
	}
	return fmt.Sprintf("FaultType(%d)", int(t))
}

// MarshalText renders the fault type by registry name in JSON records.
func (t FaultType) MarshalText() ([]byte, error) {
	for _, s := range faultRegistry {
		if s.Type == t {
			return []byte(s.Name), nil
		}
	}
	return nil, fmt.Errorf("faultinject: unregistered fault type %d", int(t))
}

// UnmarshalText parses the fault type by registry name.
func (t *FaultType) UnmarshalText(text []byte) error {
	for _, s := range faultRegistry {
		if s.Name == string(text) {
			*t = s.Type
			return nil
		}
	}
	return fmt.Errorf("faultinject: unknown fault type %q", text)
}

// pickType draws a fault type for the model from the registry weights.
// FailStop short-circuits without consuming entropy, preserving the
// historical draw sequence of fail-stop campaigns.
func pickType(m Model, r *sim.RNG) FaultType {
	if m == FailStop {
		return FaultCrash
	}
	total := 0
	for _, s := range faultRegistry {
		total += s.Weights[m]
	}
	if total == 0 {
		return FaultCrash
	}
	roll := r.Intn(total)
	for _, s := range faultRegistry {
		w := s.Weights[m]
		if w == 0 {
			continue
		}
		if roll < w {
			return s.Type
		}
		roll -= w
	}
	return FaultCrash
}

// SiteProfile records how often one instrumentation point executed in
// the profiling run.
type SiteProfile struct {
	Server string
	Site   string
	// Total is the number of executions over the whole run; Boot of
	// those happened before program installation completed (boot-time
	// executions, excluded from injection per §VI-B).
	Total, Boot int
}

// Candidates reports whether the site is a valid injection target: it
// must execute at least once after boot.
func (s SiteProfile) Candidate() bool { return s.Total > s.Boot }

// Profile runs the prototype test suite once with no faults and
// returns the per-site execution profile, sorted by (server, site).
func Profile(seed uint64) ([]SiteProfile, error) {
	var report testsuite.Report
	counts := make(map[[2]string]*SiteProfile)
	sys := boot.Boot(suiteOptions(core.Config{Policy: seep.PolicyEnhanced, Seed: seed}), testsuite.RunnerInit(&report))

	names := sys.ComponentNames()
	sys.Kernel().SetPointHook(func(ep kernel.Endpoint, name, site string) {
		if _, recoverable := names[ep]; !recoverable {
			return
		}
		key := [2]string{name, site}
		sp := counts[key]
		if sp == nil {
			sp = &SiteProfile{Server: name, Site: site}
			counts[key] = sp
		}
		sp.Total++
		if !report.InstallOK {
			sp.Boot++
		}
	})

	res := sys.Run(RunLimit)
	if res.Outcome != kernel.OutcomeCompleted {
		return nil, fmt.Errorf("profiling run did not complete: %v (%s)", res.Outcome, res.Reason)
	}
	out := make([]SiteProfile, 0, len(counts))
	for _, sp := range counts {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Server != out[j].Server {
			return out[i].Server < out[j].Server
		}
		return out[i].Site < out[j].Site
	})
	return out, nil
}

// Outcome classifies one fault-injection run (paper §VI-B).
type Outcome int

const (
	// OutcomePass: the suite completed and every test passed.
	OutcomePass Outcome = iota + 1
	// OutcomeFail: the suite completed but at least one test failed —
	// degraded service on a surviving system.
	OutcomeFail
	// OutcomeShutdown: the recovery engine performed a controlled
	// shutdown.
	OutcomeShutdown
	// OutcomeCrash: uncontrolled crash, hang or deadlock.
	OutcomeCrash
	// OutcomeDegradedPass: the run completed only because the recovery
	// sequencer quarantined a repeatedly failing component — userland
	// kept running against the remaining services (multi-fault
	// campaigns only; single-fault campaigns never quarantine).
	OutcomeDegradedPass
)

// String names the outcome as in Tables II/III.
func (o Outcome) String() string {
	switch o {
	case OutcomePass:
		return "pass"
	case OutcomeFail:
		return "fail"
	case OutcomeShutdown:
		return "shutdown"
	case OutcomeCrash:
		return "crash"
	case OutcomeDegradedPass:
		return "degraded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// MarshalText renders the outcome by name, so JSON reports key outcome
// counts as "pass"/"crash"/... instead of raw integers.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the outcome by name, so JSON trace and journal
// records round-trip.
func (o *Outcome) UnmarshalText(text []byte) error {
	for _, v := range []Outcome{OutcomePass, OutcomeFail, OutcomeShutdown, OutcomeCrash, OutcomeDegradedPass} {
		if v.String() == string(text) {
			*o = v
			return nil
		}
	}
	return fmt.Errorf("faultinject: unknown outcome %q", text)
}

// Injection is one planned fault: at the occurrence-th execution of the
// site (counted from run start), trigger the fault.
type Injection struct {
	Server     string
	Site       string
	Occurrence int
	Type       FaultType
}

// RunResult is the single-fault view of one run record (MultiRunResult):
// what RunOne and ArmedRunner.Run return. It holds every
// field of the record, so the view is lossless.
type RunResult struct {
	Injection Injection
	Outcome   Outcome
	Triggered bool
	// TestsFailed is the number of failing suite tests (Fail runs).
	TestsFailed int
	// Recoveries counts the machine's completed recoveries, Quarantines
	// its quarantined components (always 0: single-fault runs pin
	// quarantine off).
	Recoveries  int
	Quarantines int
	Reason      string
	// Seed is the per-run seed; an inconsistent run replays exactly
	// from it.
	Seed uint64
	// Consistent reports whether every audit pass (after each completed
	// recovery, plus the final pass on completed runs) found the
	// cross-server invariants intact. Violations lists the failures.
	Consistent bool
	Violations []string
}

// RunOne boots a fresh machine under policy, arms the injection, runs
// the suite and classifies the outcome. Transport interposition stays
// off unless the injection itself is an IPC fault.
func RunOne(policy seep.Policy, seed uint64, inj Injection) RunResult {
	return runCold(policy, seed, singleSpec(inj, IPCOptions{})).single(inj)
}

// singleSpec describes a single-fault run.
func singleSpec(inj Injection, ipc IPCOptions) runSpec {
	return runSpec{kind: kindSingle, faults: []MultiInjection{{Injection: inj}}, ipc: ipc}
}

// single is the RunResult view of a run that armed inj alone.
func (m MultiRunResult) single(inj Injection) RunResult {
	return RunResult{
		Injection:   inj,
		Outcome:     m.Outcome,
		Triggered:   m.Triggered > 0,
		TestsFailed: m.TestsFailed,
		Recoveries:  m.Recoveries,
		Quarantines: m.Quarantines,
		Reason:      m.Reason,
		Seed:        m.Seed,
		Consistent:  m.Consistent,
		Violations:  m.Violations,
	}
}

// record is the run record a single-fault result views: single's
// inverse.
func (rr RunResult) record() MultiRunResult {
	triggered := 0
	if rr.Triggered {
		triggered = 1
	}
	return MultiRunResult{
		Injections:  []MultiInjection{{Injection: rr.Injection}},
		Outcome:     rr.Outcome,
		Triggered:   triggered,
		TestsFailed: rr.TestsFailed,
		Recoveries:  rr.Recoveries,
		Quarantines: rr.Quarantines,
		Reason:      rr.Reason,
		Seed:        rr.Seed,
		Consistent:  rr.Consistent,
		Violations:  rr.Violations,
	}
}

// CampaignConfig parameterizes a survivability campaign.
type CampaignConfig struct {
	Policy seep.Policy
	Model  Model
	Seed   uint64
	// IPC configures transport fault interposition for every run of the
	// campaign (zero value: off; forced on when the model injects IPC
	// faults).
	IPC IPCOptions
	// SamplesPerSite is how many distinct occurrences are injected per
	// candidate site (the paper injects each EDFI candidate once; sites
	// here are coarser, so several occurrences approximate the same
	// breadth). Zero means 3.
	SamplesPerSite int
	// MaxRuns optionally caps the total number of runs (0 = no cap).
	MaxRuns int
	// Workers bounds the number of runs executed concurrently; each run
	// is an independent simulated boot, so results are bit-identical for
	// any worker count. Zero selects one worker per CPU; 1 reproduces
	// the historical serial path exactly.
	Workers int
	// Journal, when set, makes the campaign crash-tolerant: runs whose
	// result is already journaled are skipped (the stored result is
	// used verbatim), and every newly completed run is appended. Since
	// runs are pure functions of their plan index and seed, a resumed
	// campaign aggregates bit-identically to an uninterrupted one.
	Journal *Journal
	// OnResult, when set, observes every run in plan order after the
	// campaign completes its runs — including runs served from the
	// Journal — with how it was served (cold boot, warm rung fork, tail
	// elision or journal — see Serving). The faultcampaign -record flag
	// uses it to emit replayable traces.
	OnResult func(index int, run MultiRunResult, sv Serving)
	// Plane selects how the runs are served (the zero value forks from
	// the snapshot ladder and elides tails; results are bit-identical for
	// every setting).
	Plane PlaneOptions
}

// CampaignResult aggregates a survivability campaign (one row of
// Table II or III).
type CampaignResult struct {
	Policy seep.Policy
	Model  Model
	Tally
}

// PlanCampaign derives the injection list from a profile.
func PlanCampaign(cfg CampaignConfig, profile []SiteProfile) []Injection {
	samples := cfg.SamplesPerSite
	if samples <= 0 {
		samples = 3
	}
	rng := sim.NewRNG(cfg.Seed ^ 0xCA4FA160)
	var plan []Injection
	for _, sp := range profile {
		if !sp.Candidate() {
			continue
		}
		reach := sp.Total - sp.Boot
		n := samples
		if n > reach {
			n = reach
		}
		for i := 0; i < n; i++ {
			plan = append(plan, Injection{
				Server:     sp.Server,
				Site:       sp.Site,
				Occurrence: sp.Boot + 1 + rng.Intn(reach),
				Type:       pickType(cfg.Model, rng),
			})
		}
	}
	if cfg.MaxRuns > 0 && len(plan) > cfg.MaxRuns {
		// Deterministic thinning: keep an evenly spaced subset. Integer
		// arithmetic only — float rounding of i*(len/max) can duplicate
		// or skip indices for some (len, max) pairs.
		thinned := make([]Injection, 0, cfg.MaxRuns)
		for _, idx := range thinIndices(len(plan), cfg.MaxRuns) {
			thinned = append(thinned, plan[idx])
		}
		plan = thinned
	}
	return plan
}

// thinIndices returns max evenly spaced, strictly increasing indices
// into [0, n). Requires 0 < max <= n; then floor(i*n/max) advances by
// at least floor(n/max) >= 1 per step, so the indices are distinct and
// in range.
func thinIndices(n, max int) []int {
	out := make([]int, max)
	for i := 0; i < max; i++ {
		out[i] = i * n / max
	}
	return out
}

// RunCampaign executes the whole campaign and reports, beside the
// aggregate, how the warm plane served it: how many runs forked from a
// mid-suite ladder rung, from the boot barrier, or fell back to cold
// boots (and why), and how many tails were elided. The aggregate is
// bit-identical for any worker count and any PlaneOptions.
func RunCampaign(cfg CampaignConfig, profile []SiteProfile) (CampaignResult, PlaneStats) {
	plan := PlanCampaign(cfg, profile)
	result := CampaignResult{Policy: cfg.Policy, Model: cfg.Model, Tally: newTally()}
	runner := NewArmedRunner(cfg, plan)
	defer runner.Close()
	campaign{
		n: len(plan), workers: cfg.Workers, journal: cfg.Journal, onResult: cfg.OnResult,
		run: func(i int) (MultiRunResult, Serving) {
			return runner.serve(cfg.Seed+uint64(i)*7919, plan[i])
		},
		tally: func(_ int, run MultiRunResult) { result.add(run, run.Triggered > 0) },
	}.drive()
	return result, runner.Stats()
}

// ArmedRunner exposes the campaign warm plane run-by-run: it serves
// single-fault armed runs exactly as RunCampaign does (ladder fork,
// boot-barrier fork, or cold fallback — bit-identical either way).
// Close tears down the pathfinder machines when done.
type ArmedRunner struct {
	r   campaignRunner
	ipc IPCOptions
}

// NewArmedRunner prepares the warm plane for cfg, building up front the
// ladder of every configuration class the plan (typically
// PlanCampaign's output) contains. Runs of a class the plan does not
// contain build theirs on first use.
func NewArmedRunner(cfg CampaignConfig, plan []Injection) *ArmedRunner {
	a := &ArmedRunner{
		r:   campaignRunner{policy: cfg.Policy, seed: cfg.Seed, opts: cfg.Plane},
		ipc: cfg.IPC,
	}
	for _, inj := range plan {
		a.r.plane(singleSpec(inj, cfg.IPC).class())
	}
	return a
}

// Run executes one armed run with the given per-run seed.
func (a *ArmedRunner) Run(seed uint64, inj Injection) RunResult {
	run, _ := a.serve(seed, inj)
	return run.single(inj)
}

// serve is Run as the run record plus the run's serving decision.
func (a *ArmedRunner) serve(seed uint64, inj Injection) (MultiRunResult, Serving) {
	return a.r.run(seed, singleSpec(inj, a.ipc))
}

// Stats returns the serving statistics accumulated so far.
func (a *ArmedRunner) Stats() PlaneStats { return a.r.Stats() }

// Close tears down the plane's pathfinder machines.
func (a *ArmedRunner) Close() { a.r.close() }
