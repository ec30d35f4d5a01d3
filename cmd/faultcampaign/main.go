// Command faultcampaign runs the paper's survivability experiment: a
// large-scale one-fault-per-boot injection campaign over the prototype
// test suite, classified as pass / fail / shutdown / crash (§VI-B).
// With -faults N (N >= 2) it instead runs the multi-fault cascade
// campaign: N faults armed per boot (independent, correlated with a
// prior recovery, or planted in the recovery path), with the extra
// degraded-pass class for runs that survived by quarantining a
// component.
//
// Usage:
//
//	faultcampaign [-policy all|enhanced|...] [-model failstop|edfi|ipcmix]
//	              [-samples N] [-maxruns N] [-seed N] [-profile]
//	              [-faults N] [-runs N] [-workers N] [-coldboot] [-noelide]
//	              [-record DIR] [-resume JOURNAL] [-quiet] [-gate=false]
//	              [-ipcfaults] [-droprate BP] [-duprate BP] [-delayrate BP]
//	              [-reorderrate BP] [-corruptrate BP] [-ipcseed N]
//	              [-ipctimeout CYCLES] [-ipcretry N]
//	              [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Campaigns are crash-tolerant and replayable:
//
//   - -resume JOURNAL appends every completed run to an append-only,
//     checksummed journal file and, when the file already exists (e.g.
//     after the process was killed), skips the journaled runs and
//     continues where the campaign stopped — the final tables are
//     bit-identical to an uninterrupted campaign at any -workers count.
//     A torn or corrupt journal tail is dropped and re-executed. The
//     journal pins the campaign's identity (policy, model, seed, plan);
//     resuming with different flags is refused. Requires a single
//     -policy (not "all").
//   - -record DIR writes one self-contained JSON trace per failed,
//     crashed, degraded or audit-inconsistent run; `rcbreport -replay`
//     re-executes a trace bit-identically and diffs the outcome.
//   - The exit status is 1 when any run failed, crashed, or was
//     audit-inconsistent (2 for usage errors), so CI can gate on
//     campaign health. -gate=false opts out (a lossy campaign is the
//     measurement, not a tool failure); -quiet suppresses the per-run
//     detail lines (warm-plane stats, inconsistent seeds) but keeps
//     the tables.
//
// All basis-point rates must lie in [0, 10000].
//
// The -model ipcmix campaign arms one transport fault (drop, duplicate,
// delay, reorder or payload corruption of a component's next outgoing
// message) per boot. Independently, -ipcfaults / -*rate add background
// transport faults (basis points per transmission) to every run of any
// campaign; both force the end-to-end reliability layer on, and every
// run is audited for cross-server consistency — the Consistent column
// reports the share of runs with no invariant violation, and the seeds
// of inconsistent runs are printed for exact replay.
//
// Campaign boots are independent simulated machines and fan out across
// -workers threads; results are bit-identical for every worker count
// (-workers 1 is the historical serial path). Runs fork from the
// snapshot ladder of one warm pathfinder machine per policy: each armed
// run resumes from the deepest captured mid-suite rung before its
// trigger; -coldboot boots every run from scratch instead — same
// results, historical setup cost. Once a warm run's
// fault has fully recovered and the state it parks in at a suite barrier
// is one the pathfinder — or an earlier armed run that executed to a
// clean end — already executed from, the remaining suite suffix is
// elided: the recorded suffix is spliced in place of re-execution, with
// results bit-identical either way. A warm run that wedges instead — a
// test waiting forever for an event that died with the crashed server —
// is ended as the hang it is once a few identical heartbeat rounds
// prove it, instead of simulating the rest of its cycle budget.
// -noelide pins both suffix mechanisms off: full execution to the end,
// the bit-identity oracle. Each policy row is
// followed by "warm plane:" and "elision:" lines reporting how its runs
// were served.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/seep"
)

func main() { os.Exit(runCommand()) }

// runCommand is the command; it returns the exit status instead of
// exiting, so the deferred CPU profile stop and file closes run first.
func runCommand() int {
	var (
		policyName = flag.String("policy", "all", "policy: all, enhanced, extended, pessimistic, stateless or naive")
		modelName  = flag.String("model", "failstop", "fault model: failstop, edfi or ipcmix")
		samples    = flag.Int("samples", 4, "injection occurrences sampled per candidate site")
		maxRuns    = flag.Int("maxruns", 0, "cap on total runs per policy (0 = no cap)")
		seed       = flag.Uint64("seed", 42, "simulation seed")
		profile    = flag.Bool("profile", false, "print the fault-site profile and exit")
		faults     = flag.Int("faults", 1, "faults armed per boot; >= 2 selects the multi-fault cascade campaign")
		runs       = flag.Int("runs", 40, "boots per policy in the multi-fault campaign")
		workers    = flag.Int("workers", 0, "concurrent boots (0 = one per CPU, 1 = serial)")
		coldBoot   = flag.Bool("coldboot", false, "boot every run from scratch instead of forking a warm image")
		noElide    = flag.Bool("noelide", false, "execute every warm run to its end: no suffix table and no tail splice, no wedge certificate for hung runs (the bit-identity oracle)")
		recordDir  = flag.String("record", "", "write a replayable JSON trace for every failed/degraded/inconsistent run into this directory")
		resumePath = flag.String("resume", "", "journal completed runs to this file and resume from it after a crash (single -policy campaigns only)")
		quiet      = flag.Bool("quiet", false, "suppress per-run detail (warm-plane stats, inconsistent seeds); tables only")
		gate       = flag.Bool("gate", true, "exit 1 when any run failed, crashed, or was audit-inconsistent; -gate=false always exits 0 for healthy tool runs (smoke tests measuring lossy campaigns)")
		ipcFaults  = flag.Bool("ipcfaults", false, "background transport faults at default rates (50 bp per class)")
		dropRate   = flag.Int("droprate", 0, "background message drop rate, basis points per transmission")
		dupRate    = flag.Int("duprate", 0, "background duplication rate, basis points")
		delayRate  = flag.Int("delayrate", 0, "background delay rate, basis points")
		reordRate  = flag.Int("reorderrate", 0, "background reorder rate, basis points")
		corrRate   = flag.Int("corruptrate", 0, "background payload-corruption rate, basis points")
		ipcSeed    = flag.Uint64("ipcseed", 0, "perturbation of the per-run transport fault stream")
		ipcTimeout = flag.Int64("ipctimeout", 0, "sender retransmission timeout in cycles (0 = default when faults are on)")
		ipcRetry   = flag.Int("ipcretry", 0, "retransmission budget per request (0 = kernel default)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	plane := faultinject.PlaneOptions{ColdBoot: *coldBoot, NoElide: *noElide}

	if err := validateBPFlags([]bpFlag{
		{"droprate", *dropRate}, {"duprate", *dupRate}, {"delayrate", *delayRate},
		{"reorderrate", *reordRate}, {"corruptrate", *corrRate},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "faultcampaign:", err)
		return 2
	}

	ipc := faultinject.IPCOptions{
		Faults: kernel.IPCFaultConfig{
			DropBP: *dropRate, DupBP: *dupRate, DelayBP: *delayRate,
			ReorderBP: *reordRate, CorruptBP: *corrRate,
		},
		Seed:          *ipcSeed,
		TimeoutCycles: *ipcTimeout,
		RetryMax:      *ipcRetry,
	}
	if *ipcFaults && !ipc.Faults.Enabled() {
		ipc.Faults = kernel.IPCFaultConfig{DropBP: 50, DupBP: 50, DelayBP: 50, ReorderBP: 50, CorruptBP: 50}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultcampaign:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "faultcampaign:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if (*recordDir != "" || *resumePath != "") && *profile {
		fmt.Fprintln(os.Stderr, "faultcampaign: -record/-resume apply to injection campaigns only (not -profile)")
		return 2
	}
	if *resumePath != "" && *policyName == "all" {
		fmt.Fprintln(os.Stderr, "faultcampaign: -resume requires a single -policy (a journal pins one campaign)")
		return 2
	}

	unhealthy, err := run(campaignSpec{
		policyName: *policyName,
		modelName:  *modelName,
		samples:    *samples,
		maxRuns:    *maxRuns,
		seed:       *seed,
		profile:    *profile,
		faults:     *faults,
		runs:       *runs,
		workers:    *workers,
		ipc:        ipc,
		plane:      plane,
		recordDir:  *recordDir,
		resumePath: *resumePath,
		quiet:      *quiet,
	})
	if *memProfile != "" {
		if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultcampaign:", err)
		return 1
	}
	if unhealthy && *gate {
		fmt.Fprintln(os.Stderr, "faultcampaign: campaign unhealthy (failed, crashed, or audit-inconsistent runs; see tables)")
		return 1
	}
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// campaignSpec bundles the campaign flags.
type campaignSpec struct {
	policyName string
	modelName  string
	samples    int
	maxRuns    int
	seed       uint64
	profile    bool
	faults     int
	runs       int
	workers    int
	ipc        faultinject.IPCOptions
	plane      faultinject.PlaneOptions
	recordDir  string
	resumePath string
	quiet      bool
}

// run executes the campaigns. It reports
// whether any run was unhealthy — failed, crashed, or
// audit-inconsistent — so main can gate the exit status on it.
func run(spec campaignSpec) (unhealthy bool, err error) {
	prof, err := faultinject.Profile(spec.seed)
	if err != nil {
		return false, err
	}
	if spec.profile {
		fmt.Printf("%-8s %-28s %8s %8s %9s\n", "server", "site", "total", "boot", "candidate")
		for _, sp := range prof {
			fmt.Printf("%-8s %-28s %8d %8d %9v\n", sp.Server, sp.Site, sp.Total, sp.Boot, sp.Candidate())
		}
		return false, nil
	}

	var model faultinject.Model
	switch spec.modelName {
	case "failstop":
		model = faultinject.FailStop
	case "edfi":
		model = faultinject.FullEDFI
	case "ipcmix":
		model = faultinject.IPCMix
	default:
		return false, fmt.Errorf("unknown model %q", spec.modelName)
	}

	var policies []seep.Policy
	switch spec.policyName {
	case "all":
		policies = []seep.Policy{seep.PolicyStateless, seep.PolicyNaive, seep.PolicyPessimistic, seep.PolicyEnhanced}
	default:
		p, perr := seep.ParsePolicy(spec.policyName)
		if perr != nil {
			return false, fmt.Errorf("unknown policy %q", spec.policyName)
		}
		policies = []seep.Policy{p}
	}

	if spec.recordDir != "" {
		if mkErr := os.MkdirAll(spec.recordDir, 0o755); mkErr != nil {
			return false, mkErr
		}
	}
	kind := singleFaultKind(spec, model, prof)
	if spec.faults >= 2 {
		kind = multiFaultKind(spec, model, prof)
	}
	fmt.Printf("model: %v, %s%d candidate sites\n\n", model, kind.banner, countCandidates(prof))
	degradedCol := ""
	if kind.degraded {
		degradedCol = fmt.Sprintf(" %9s", "Degraded")
	}
	fmt.Printf("%-12s %8s%s %8s %10s %8s %11s %8s %12s\n",
		"Recovery", "Pass", degradedCol, "Fail", "Shutdown", "Crash", "Consistent", "Runs", "Untriggered")

	var recordErr error
	for _, policy := range policies {
		var hooks runHooks
		if spec.resumePath != "" {
			hdr, planned := kind.identity(policy)
			var resumed int
			hooks.journal, resumed, err = faultinject.OpenJournal(spec.resumePath, hdr)
			if err != nil {
				return false, err
			}
			if resumed > 0 {
				fmt.Fprintf(os.Stderr, "faultcampaign: resuming, %d of %d runs journaled in %s\n", resumed, planned, spec.resumePath)
			}
		}
		if spec.recordDir != "" {
			servings := make(map[int]faultinject.Serving)
			hooks.onServe = func(i int, sv faultinject.Serving) { servings[i] = sv }
			hooks.record = func(i int, tr faultinject.Trace) {
				tr.Serving = servings[i].String()
				path := filepath.Join(spec.recordDir, faultinject.TraceFileName(policy, i))
				if werr := faultinject.WriteTraceFile(path, tr); werr != nil && recordErr == nil {
					recordErr = werr
				}
			}
		}
		res, stats := kind.run(policy, hooks)
		if hooks.journal != nil {
			if cerr := hooks.journal.Close(); cerr != nil {
				err = fmt.Errorf("journal: %w", cerr)
			}
		}
		unhealthy = unhealthy || res.Counts[faultinject.OutcomeFail]+res.Counts[faultinject.OutcomeCrash] > 0 ||
			len(res.InconsistentSeeds) > 0
		if kind.degraded {
			degradedCol = fmt.Sprintf(" %8.1f%%", res.Percent(faultinject.OutcomeDegradedPass))
		}
		fmt.Printf("%-12s %7.1f%%%s %7.1f%% %9.1f%% %7.1f%% %10.1f%% %8d %12d\n",
			policy,
			res.Percent(faultinject.OutcomePass),
			degradedCol,
			res.Percent(faultinject.OutcomeFail),
			res.Percent(faultinject.OutcomeShutdown),
			res.Percent(faultinject.OutcomeCrash),
			res.ConsistentPercent(),
			res.Runs, res.Untriggered)
		if !spec.quiet {
			printPlaneStats(stats)
			printInconsistent(res.InconsistentSeeds)
		}
		if err != nil {
			return unhealthy, err
		}
	}
	if recordErr != nil {
		return unhealthy, fmt.Errorf("record: %w", recordErr)
	}
	return unhealthy, nil
}

// campaignKind is what tells the single-fault campaign from the
// multi-fault one inside the per-policy loop of run.
type campaignKind struct {
	// banner is the kind's part of the "model:" line.
	banner string
	// degraded adds the degraded-pass column (runs that survived by
	// quarantining a component).
	degraded bool
	// identity returns the journal header pinning the policy's campaign
	// and the number of runs it plans.
	identity func(seep.Policy) (faultinject.JournalHeader, int)
	// run executes the policy's campaign.
	run func(seep.Policy, runHooks) (faultinject.Tally, faultinject.PlaneStats)
}

// runHooks is what the per-policy loop plugs into a campaign of either
// kind; every field may be nil.
type runHooks struct {
	journal *faultinject.Journal
	onServe func(int, faultinject.Serving)
	// record is handed the trace of every triggered unhealthy run.
	record func(int, faultinject.Trace)
}

func singleFaultKind(spec campaignSpec, model faultinject.Model, prof []faultinject.SiteProfile) campaignKind {
	config := func(policy seep.Policy) faultinject.CampaignConfig {
		return faultinject.CampaignConfig{
			Policy:         policy,
			Model:          model,
			Seed:           spec.seed,
			SamplesPerSite: spec.samples,
			MaxRuns:        spec.maxRuns,
			Workers:        spec.workers,
			IPC:            spec.ipc,
			Plane:          spec.plane,
		}
	}
	return campaignKind{
		identity: func(policy seep.Policy) (faultinject.JournalHeader, int) {
			plan := faultinject.PlanCampaign(config(policy), prof)
			return faultinject.JournalHeader{
				Kind: faultinject.TraceSingle, Policy: policy, Model: model, Seed: spec.seed,
				SamplesPerSite: spec.samples, MaxRuns: spec.maxRuns, IPC: spec.ipc,
				PlanFingerprint: faultinject.PlanFingerprint(plan),
			}, len(plan)
		},
		run: func(policy seep.Policy, hooks runHooks) (faultinject.Tally, faultinject.PlaneStats) {
			cfg := config(policy)
			cfg.Journal, cfg.OnServe = hooks.journal, hooks.onServe
			if hooks.record != nil {
				cfg.OnResult = func(i int, rr faultinject.RunResult) {
					if rr.Triggered && runUnhealthy(rr.Outcome, rr.Consistent) {
						hooks.record(i, faultinject.NewTrace(policy, rr, spec.ipc))
					}
				}
			}
			res, stats := faultinject.RunCampaign(cfg, prof)
			return res.Tally, stats
		},
	}
}

func multiFaultKind(spec campaignSpec, model faultinject.Model, prof []faultinject.SiteProfile) campaignKind {
	config := func(policy seep.Policy) faultinject.MultiCampaignConfig {
		return faultinject.MultiCampaignConfig{
			Policy:  policy,
			Model:   model,
			Faults:  spec.faults,
			Runs:    spec.runs,
			Seed:    spec.seed,
			Workers: spec.workers,
			IPC:     spec.ipc,
			Plane:   spec.plane,
		}
	}
	return campaignKind{
		banner:   fmt.Sprintf("%d faults per boot, ", spec.faults),
		degraded: true,
		identity: func(policy seep.Policy) (faultinject.JournalHeader, int) {
			plans := faultinject.PlanMultiCampaign(config(policy), prof)
			return faultinject.JournalHeader{
				Kind: faultinject.TraceMulti, Policy: policy, Model: model, Seed: spec.seed,
				Faults: spec.faults, Runs: spec.runs, IPC: spec.ipc,
				PlanFingerprint: faultinject.MultiPlanFingerprint(plans),
			}, len(plans)
		},
		run: func(policy seep.Policy, hooks runHooks) (faultinject.Tally, faultinject.PlaneStats) {
			cfg := config(policy)
			cfg.Journal, cfg.OnServe = hooks.journal, hooks.onServe
			if hooks.record != nil {
				cfg.OnResult = func(i int, rr faultinject.MultiRunResult) {
					if rr.Triggered > 0 && runUnhealthy(rr.Outcome, rr.Consistent) {
						hooks.record(i, faultinject.NewMultiTrace(policy, rr, spec.ipc))
					}
				}
			}
			res, stats := faultinject.RunMultiCampaign(cfg, prof)
			return res.Tally, stats
		},
	}
}

// runUnhealthy classifies one run for exit-status gating and trace
// recording: failed, crashed, degraded, or audit-inconsistent.
// (Degraded-pass runs are recorded as traces but do not fail the exit
// status: surviving by quarantine is the sequencer working as
// designed.)
func runUnhealthy(o faultinject.Outcome, consistent bool) bool {
	switch o {
	case faultinject.OutcomeFail, faultinject.OutcomeCrash, faultinject.OutcomeDegradedPass:
		return true
	}
	return !consistent
}

// printPlaneStats reports how the warm plane served a policy's runs:
// ladder forks resume from a mid-suite rung, boot forks from the
// post-install barrier, and cold boots replay everything (broken down
// by fallback reason). Outcomes are bit-identical either way.
func printPlaneStats(s faultinject.PlaneStats) {
	fmt.Printf("  warm plane: %d ladder forks, %d boot forks, %d cold boots%s\n",
		s.LadderForks, s.BootForks, s.ColdBoots, renderReasons(s.Fallbacks))
	if s.Elided == 0 && s.Wedged == 0 && len(s.ElisionFallbacks) == 0 {
		return
	}
	fmt.Printf("  elision: %d tails elided (%d rejoined), %d hangs certified%s\n",
		s.Elided, s.Rejoined, s.Wedged, renderReasons(s.ElisionFallbacks))
}

// renderReasons formats a fallback-reason histogram as
// " (reason: n, ...)" in sorted order, or "" when it is empty.
func renderReasons(reasons map[string]int) string {
	if len(reasons) == 0 {
		return ""
	}
	names := make([]string, 0, len(reasons))
	for r := range reasons {
		names = append(names, r)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, r := range names {
		parts[i] = fmt.Sprintf("%s: %d", r, reasons[r])
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

// printInconsistent lists the per-run seeds of audit-inconsistent runs;
// re-running the same campaign command narrowed to such a seed replays
// the run exactly.
func printInconsistent(seeds []uint64) {
	if len(seeds) == 0 {
		return
	}
	fmt.Printf("  inconsistent run seeds:")
	for _, s := range seeds {
		fmt.Printf(" %d", s)
	}
	fmt.Println()
}

func countCandidates(prof []faultinject.SiteProfile) int {
	n := 0
	for _, sp := range prof {
		if sp.Candidate() {
			n++
		}
	}
	return n
}
