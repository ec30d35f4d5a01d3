// Package sut adapts the OSIRIS simulator to osirisbench. It is the only
// file of the benchmark that imports repro/internal/...: the five
// workloads, their oracles, the shadow pass and the fixed-shape probes
// all reach the simulator through the public functions used here, which
// bench/README.md lists so that refactors know which are load-bearing.
package sut

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/bench/internal/harness"
	"repro/internal/audit"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/parallel"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/unixbench"
	"repro/internal/usr"
)

// Sizes at scale 1, measured on the 2-core reference box (see README).
const (
	singleSamplesPerSite = 40   // 2542 armed runs
	cascadeRuns          = 800  // multi-fault cold boots
	steadySeeds          = 40   // x 26 guests = 1040 machines
	persistOps           = 1200 // a third each: raw, flate, replay
	steadyIterScale      = 2.5
	cascadeRateBP        = 50
	cascadeFaults        = 3
	persistTraces        = 4
	shadowSamples        = 48
	rungStride           = 4
)

// Cost classes. A run that ends at the simulator's cycle limit spins
// heartbeats for ~100x the host time of any other run; which inputs do
// so is a property of the generated plan, so the share of such runs is
// pinned by quota where the plan is random (campaign_cascade).
const (
	classRun  = "run"
	classHang = "hang"

	cycleLimitReason = "cycle limit exceeded"
	fullSuiteReason  = "root process terminated"
)

// SwitchSet names the first of the simulator's process-global switches
// that is set in the environment ("" when none is): with one set, the
// numbers describe a different program.
func SwitchSet() string {
	for _, name := range []string{
		"OSIRIS_COLD_BOOT", "OSIRIS_NO_ELIDE", "OSIRIS_LEGACY_SCHED",
		"OSIRIS_LEGACY_CHECKPOINT", "OSIRIS_SNAPSHOT_CACHE",
	} {
		if _, set := os.LookupEnv(name); set {
			return name
		}
	}
	return ""
}

// ParWorkers is the client count of campaign_single_par: min(nproc, 4).
func ParWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func fanout(workers, n int, fn func(i int)) {
	parallel.Map(workers, n, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}

// Workloads returns the five workloads in report order.
func Workloads() []*harness.Workload {
	single := &harness.Workload{
		Name:          "campaign_single",
		Why:           "single-fault campaign served by the warm plane at workers 1: ladder fork, prefix, fingerprint, elision and the cycle-limit tail",
		OpSpan:        "faultinject.run",
		Workers:       1,
		OracleSamples: 32,
		Setup:         func(seed uint64, scale float64) (harness.Instance, error) { return newSingle(seed, scale, 1) },
	}
	par := &harness.Workload{
		Name:          "campaign_single_par",
		Why:           "the same plan fanned out over min(nproc,4) workers: concurrent forks against one ladder, allocator and GC",
		OpSpan:        "faultinject.run",
		Workers:       ParWorkers(),
		Fanout:        fanout,
		OracleSamples: 32,
		Setup: func(seed uint64, scale float64) (harness.Instance, error) {
			return newSingle(seed, scale, ParWorkers())
		},
	}
	cascade := &harness.Workload{
		Name:          "campaign_cascade",
		Why:           "three-fault cold-boot runs under background transport faults: bypasses fork, ladder, fingerprint and elision",
		OpSpan:        "faultinject.run_multi",
		Workers:       1,
		Quota:         map[string]float64{classRun: 0.975, classHang: 0.025},
		OracleSamples: 16,
		Setup:         newCascade,
	}
	steady := &harness.Workload{
		Name:          "os_steady",
		Why:           "fault-free guests (12 Unixbench programs and the test suite, two policies): the pure dispatch, IPC and instrumented-store hot loop",
		OpSpan:        "os.machine",
		Workers:       1,
		OracleSamples: 26,
		Setup:         newSteady,
	}
	persist := &harness.Workload{
		Name:          "persist_replay",
		Why:           "snapshot encode, decode and fork (raw and flate) plus trace replay: the state walk used a third way and the cost of replay",
		OpSpan:        "persist.op",
		Workers:       1,
		OracleSamples: 24,
		Setup:         newPersist,
	}
	par.Serial = single
	all := []*harness.Workload{single, par, cascade, steady, persist}
	units := LayerUnits()
	for _, w := range all {
		w.Probes, w.LayerUnits = Probes, units
	}
	return all
}

func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

func costClass(reason string) string {
	if reason == cycleLimitReason {
		return classHang
	}
	return classRun
}

// suiteOptions is the boot configuration campaign machines use: the
// whole suite registry with heartbeats on.
func suiteOptions(cfg core.Config) boot.Options {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return boot.Options{Config: cfg, Registry: reg, Heartbeats: true}
}

// singleFaultConfig mirrors what faultinject.RunOne pins for
// single-fault runs (cascade sequencer off), so machines the harness
// boots itself behave like the campaign's.
func singleFaultConfig(seed uint64) core.Config {
	return core.Config{
		Policy:             seep.PolicyEnhanced,
		Seed:               seed,
		DisableQuarantine:  true,
		RestartBackoffBase: -1,
		RecoveryDecay:      -1,
		MaxRestartAttempts: 1,
	}
}

// ---------------------------------------------------------------------
// campaign_single / campaign_single_par

// stratifiedPlan is the harness's single-fault plan: per candidate site,
// min(samples, reach) fail-stop injections spread evenly over the
// site's post-boot occurrences, with a seeded phase per site. Sites with
// fewer occurrences than samples are enumerated exhaustively. Compared
// with faultinject.PlanCampaign's independent draws this keeps the mix
// of cheap and cycle-limit runs nearly the same for every seed.
func stratifiedPlan(profile []faultinject.SiteProfile, samples int, seed uint64) []faultinject.Injection {
	rng := sim.NewRNG(seed ^ 0x05121545)
	var plan []faultinject.Injection
	for _, sp := range profile {
		if !sp.Candidate() {
			continue
		}
		reach := sp.Total - sp.Boot
		n := samples
		if n > reach {
			n = reach
		}
		phase := rng.Float64()
		for i := 0; i < n; i++ {
			plan = append(plan, faultinject.Injection{
				Server:     sp.Server,
				Site:       sp.Site,
				Occurrence: sp.Boot + 1 + int((float64(i)+phase)*float64(reach)/float64(n)),
				Type:       faultinject.FaultCrash,
			})
		}
	}
	return plan
}

type singleInst struct {
	cfg     faultinject.CampaignConfig
	profile []faultinject.SiteProfile
	plan    []faultinject.Injection
	runner  *faultinject.ArmedRunner
	last    faultinject.PlaneStats
}

// singleDetail is the per-op record of a single-fault run; serve is the
// serving class (elided, full, cold), known only in serial traced passes.
type singleDetail struct {
	rr    faultinject.RunResult
	serve string
}

func newSingle(seed uint64, scale float64, workers int) (harness.Instance, error) {
	profile, err := faultinject.Profile(seed)
	if err != nil {
		return nil, err
	}
	cfg := faultinject.CampaignConfig{
		Policy:  seep.PolicyEnhanced,
		Model:   faultinject.FailStop,
		Seed:    seed,
		Workers: workers,
	}
	plan := stratifiedPlan(profile, scaled(singleSamplesPerSite, scale), seed)
	if len(plan) == 0 {
		return nil, fmt.Errorf("empty single-fault plan")
	}
	return &singleInst{cfg: cfg, profile: profile, plan: plan, runner: faultinject.NewArmedRunner(cfg, plan)}, nil
}

func (s *singleInst) Count() int      { return len(s.plan) }
func (s *singleInst) Candidates() int { return len(s.plan) }
func (s *singleInst) Close()          { s.runner.Close() }

func (s *singleInst) runSeed(i int) uint64 { return s.cfg.Seed + uint64(i)*7919 }

func digestRun(rr faultinject.RunResult) string {
	return fmt.Sprintf("%v|%v|%d|%s|%v", rr.Outcome, rr.Triggered, rr.TestsFailed, rr.Reason, rr.Consistent)
}

func (s *singleInst) Do(i int, tr *harness.Tracer, _ int) harness.Op {
	rr := s.runner.Run(s.runSeed(i), s.plan[i])
	d := singleDetail{rr: rr}
	if tr != nil && s.cfg.Workers == 1 {
		// The runner does not return its serving decision; at workers 1
		// the statistics delta of one run names it.
		st := s.runner.Stats()
		switch {
		case st.Elided > s.last.Elided:
			d.serve = "elided"
		case st.ColdBoots > s.last.ColdBoots:
			d.serve = "cold"
		default:
			d.serve = "full"
		}
		s.last = st
	}
	return harness.Op{Class: costClass(rr.Reason), Digest: digestRun(rr), Detail: d}
}

func (s *singleInst) Verify(i int, got harness.Op) error {
	cold := faultinject.RunOne(s.cfg.Policy, s.runSeed(i), s.plan[i])
	if warm := got.Detail.(singleDetail).rr; !reflect.DeepEqual(cold, warm) {
		return fmt.Errorf("warm-served run differs from cold RunOne: %+v vs %+v", warm, cold)
	}
	return nil
}

func (s *singleInst) Layer(in harness.TraceInput, out map[string]float64) {
	st := s.runner.Stats()
	warm := st.LadderForks + st.BootForks
	out["faultinject.runs"] = float64(len(in.Traced.Ops))
	out["faultinject.ladder_forks"] = float64(st.LadderForks)
	out["faultinject.boot_forks"] = float64(st.BootForks)
	out["faultinject.cold_boots"] = float64(st.ColdBoots)
	out["faultinject.elided"] = float64(st.Elided)
	if warm > 0 {
		out["faultinject.elide_hit_ratio"] = float64(st.Elided) / float64(warm)
	}
	for _, reason := range []string{
		faultinject.ElideFallbackUntriggered, faultinject.ElideFallbackMismatch,
		faultinject.ElideFallbackResidue, faultinject.ElideFallbackNoTail,
	} {
		out["faultinject.fallback."+reason] = float64(st.ElisionFallbacks[reason])
	}

	// The serving class comes from the serial pass (this one, or the
	// serial twin's for the parallel workload), joined by op index with
	// the traced pass's latencies.
	classed := in.Traced
	if in.Serial != nil {
		classed = in.Serial
	}
	serve := make(map[int]string, len(classed.Ops))
	for _, r := range classed.Ops {
		serve[r.Index] = r.Op.Detail.(singleDetail).serve
	}
	byServe := make(map[string][]float64)
	var total, hang float64
	for _, r := range in.Traced.Ops {
		d := r.Op.Detail.(singleDetail)
		byServe[serve[r.Index]] = append(byServe[serve[r.Index]], r.MS)
		total += r.MS
		if r.Op.Class == classHang {
			hang += r.MS
		}
		out["faultinject.outcome."+d.rr.Outcome.String()]++
		if d.rr.Consistent {
			out["faultinject.consistent"]++
		}
	}
	for class, ms := range byServe {
		if class == "" {
			continue
		}
		sum := 0.0
		for _, v := range ms {
			sum += v
		}
		out["faultinject.run_ms_p50."+class] = harness.Median(ms) / in.Traced.HostFactor
		out["faultinject.wall_share."+class] = sum / total
	}
	out["faultinject.wall_share.cycle_limit"] = hang / total

	s.shadow(in.Tracer)
}

// rung is one quiescence barrier of the harness's own pathfinder walk.
type rung struct {
	counts map[[2]string]int
	prefix testsuite.Report
	fp     uint64
	snap   *boot.Snapshot // nil off the capture stride
}

// walkLadder boots one fault-free machine and walks it barrier to
// barrier, recording per-site execution counts, suite tallies and the
// state fingerprint at every rung and capturing every rungStride-th.
func walkLadder(seed uint64) ([]rung, error) {
	opts := suiteOptions(singleFaultConfig(seed))
	var report testsuite.Report
	sys := boot.Boot(opts, testsuite.RunnerInit(&report))
	defer sys.Shutdown("osirisbench: ladder walked")
	counts := make(map[[2]string]int)
	sys.Kernel().SetPointHook(func(_ kernel.Endpoint, name, site string) { counts[[2]string{name, site}]++ })

	var rungs []rung
	for sys.Kernel().RunToBarrier(faultinject.RunLimit) {
		fp, err := sys.StateFingerprint()
		if err != nil {
			return nil, err
		}
		r := rung{counts: make(map[[2]string]int, len(counts)), prefix: report, fp: fp}
		r.prefix.FailedNames = append([]string(nil), report.FailedNames...)
		for k, v := range counts {
			r.counts[k] = v
		}
		if len(rungs)%rungStride == 0 {
			// Past the boot barrier a failed capture only costs depth (a
			// server may be mid-request at a program boundary): runs fork
			// from an earlier rung, as in the campaign's own ladder.
			if r.snap, err = boot.CaptureParked(sys, opts); err != nil && len(rungs) == 0 {
				return nil, err
			}
		}
		rungs = append(rungs, r)
	}
	if len(rungs) == 0 {
		return nil, fmt.Errorf("pathfinder reached no barrier")
	}
	return rungs, nil
}

// shadow performs the phases of an armed run itself, through public
// calls, on evenly spaced plan entries: fork from the deepest captured
// rung before the trigger, then barrier to barrier with a fingerprint
// comparison after the fault fired, an audit pass on convergence, and
// teardown. Each phase is a child span of one shadow.run span, so the
// per-layer self times of an armed run fall out of the span file.
func (s *singleInst) shadow(tr *harness.Tracer) {
	root := tr.Begin("shadow.pass", harness.NoSpan, -1)
	defer tr.End(root)
	sp := tr.Begin("shadow.walk_ladder", root, -1)
	rungs, err := walkLadder(s.cfg.Seed)
	tr.End(sp)
	if err != nil {
		return
	}
	n := shadowSamples
	if n > len(s.plan) {
		n = len(s.plan)
	}
	for k := 0; k < n; k++ {
		i := k * len(s.plan) / n
		// A shadow run can deadlock in teardown like any armed run (see the
		// README's known defect); such a sample is dropped.
		harness.Guarded(harness.OpLimit, func() {
			shadowRun(tr, root, i, rungs, s.plan[i], s.runSeed(i))
		})
	}
}

func shadowRun(tr *harness.Tracer, parent, op int, rungs []rung, inj faultinject.Injection, seed uint64) {
	key := [2]string{inj.Server, inj.Site}
	from := 0
	for r := range rungs {
		if rungs[r].snap != nil && rungs[r].counts[key] < inj.Occurrence {
			from = r
		}
	}
	if rungs[from].counts[key] >= inj.Occurrence {
		return // consumed before the boot barrier: the campaign boots cold
	}
	run := tr.Begin("shadow.run", parent, op)
	defer tr.End(run)

	var report testsuite.Report
	sp := tr.Begin("boot.fork", run, op)
	sys, err := rungs[from].snap.Fork(boot.ForkParams{Seed: seed}, testsuite.RunnerResumeFrom(&report, rungs[from].prefix))
	tr.End(sp)
	if err != nil {
		return
	}
	remaining, triggered := inj.Occurrence-rungs[from].counts[key], false
	sys.Kernel().SetPointHook(func(_ kernel.Endpoint, name, site string) {
		if triggered || name != inj.Server || site != inj.Site {
			return
		}
		if remaining--; remaining > 0 {
			return
		}
		triggered = true
		panic("osirisbench: injected fail-stop fault")
	})
	for attempts := 0; ; {
		sp = tr.Begin("kernel.run_to_barrier", run, op)
		parked := sys.Kernel().RunToBarrier(faultinject.RunLimit)
		tr.End(sp)
		if !parked {
			break
		}
		if !triggered || report.Ran >= len(rungs) || attempts >= 8 {
			continue
		}
		attempts++
		sp = tr.Begin("boot.fingerprint", run, op)
		fp, err := sys.StateFingerprint()
		tr.End(sp)
		if err == nil && fp == rungs[report.Ran].fp {
			sp = tr.Begin("audit.check", run, op)
			audit.Check(audit.Capture(sys.OS))
			tr.End(sp)
			break
		}
	}
	sp = tr.Begin("boot.shutdown", run, op)
	sys.Shutdown("osirisbench: shadow run complete")
	tr.End(sp)
}

// ---------------------------------------------------------------------
// campaign_cascade

type cascadeInst struct {
	policy seep.Policy
	seed   uint64
	ipc    faultinject.IPCOptions
	plans  [][]faultinject.MultiInjection
	count  int
}

func newCascade(seed uint64, scale float64) (harness.Instance, error) {
	profile, err := faultinject.Profile(seed)
	if err != nil {
		return nil, err
	}
	count := scaled(cascadeRuns, scale)
	ipc := faultinject.IPCOptions{
		Faults: kernel.IPCFaultConfig{
			DropBP: cascadeRateBP, DupBP: cascadeRateBP, DelayBP: cascadeRateBP,
			ReorderBP: cascadeRateBP, CorruptBP: cascadeRateBP,
		},
		Seed: seed,
	}
	// Twice the ops plus slack: the quota discards over-represented
	// cycle-limit runs, so the pass consumes more candidates than ops.
	plans := faultinject.PlanMultiCampaign(faultinject.MultiCampaignConfig{
		Policy: seep.PolicyEnhanced, Model: faultinject.FullEDFI,
		Faults: cascadeFaults, Runs: 2*count + 32, Seed: seed, IPC: ipc,
	}, profile)
	if len(plans) == 0 {
		return nil, fmt.Errorf("empty multi-fault plan")
	}
	return &cascadeInst{policy: seep.PolicyEnhanced, seed: seed, ipc: ipc, plans: plans, count: count}, nil
}

func (c *cascadeInst) Count() int      { return c.count }
func (c *cascadeInst) Candidates() int { return len(c.plans) }
func (c *cascadeInst) Close()          {}

func (c *cascadeInst) run(i int) faultinject.MultiRunResult {
	return faultinject.RunMultiWith(c.policy, c.seed+uint64(i)*104729, c.plans[i], c.ipc)
}

func (c *cascadeInst) Do(i int, _ *harness.Tracer, _ int) harness.Op {
	rr := c.run(i)
	return harness.Op{
		Class:  costClass(rr.Reason),
		Digest: fmt.Sprintf("%v|%d|%d|%d|%d|%s|%v", rr.Outcome, rr.Triggered, rr.TestsFailed, rr.Recoveries, rr.Quarantines, rr.Reason, rr.Consistent),
		Detail: rr,
	}
}

func (c *cascadeInst) Verify(i int, got harness.Op) error {
	if again := c.run(i); !reflect.DeepEqual(again, got.Detail.(faultinject.MultiRunResult)) {
		return fmt.Errorf("repeated RunMultiWith differs: %+v vs %+v", got.Detail, again)
	}
	return nil
}

func (c *cascadeInst) Layer(in harness.TraceInput, out map[string]float64) {
	var total, hang float64
	var ms []float64
	for _, r := range in.Traced.Ops {
		rr := r.Op.Detail.(faultinject.MultiRunResult)
		ms = append(ms, r.MS)
		total += r.MS
		if r.Op.Class == classHang {
			hang += r.MS
		}
		out["faultinject.outcome."+rr.Outcome.String()]++
		if rr.Consistent {
			out["faultinject.consistent"]++
		}
		out["core.recoveries"] += float64(rr.Recoveries)
		out["core.quarantines"] += float64(rr.Quarantines)
	}
	// Background transport faults make every run a cold boot.
	out["faultinject.runs"] = float64(len(ms))
	out["faultinject.cold_boots"] = float64(len(ms))
	out["faultinject.run_ms_p50.cold"] = harness.Median(ms) / in.Traced.HostFactor
	out["faultinject.wall_share.cold"] = 1
	out["faultinject.wall_share.cycle_limit"] = hang / total
}

// ---------------------------------------------------------------------
// os_steady

type guest struct {
	program string // a Unixbench name, or "" for the test suite
	policy  seep.Policy
	seed    uint64
}

type steadyInst struct{ guests []guest }

// steadyDetail carries the simulated result of one guest machine plus,
// in traced passes, the kernel and store counters it ended with.
type steadyDetail struct {
	cycles                        uint64
	ops                           int
	dispatches, hops              uint64
	storesLogged, storesTotalSeen uint64
}

func newSteady(seed uint64, scale float64) (harness.Instance, error) {
	var one []guest
	for _, policy := range []seep.Policy{seep.PolicyPessimistic, seep.PolicyEnhanced} {
		for _, name := range unixbench.Names() {
			one = append(one, guest{program: name, policy: policy})
		}
		one = append(one, guest{policy: policy})
	}
	s := &steadyInst{}
	for k := 0; k < scaled(steadySeeds, scale); k++ {
		for _, g := range one {
			g.seed = seed*1000 + uint64(k) + 1
			s.guests = append(s.guests, g)
		}
	}
	// Warm-up, part of set-up: one machine of every (program, policy)
	// so lazy initialization is done before the timed pass.
	for i := range one {
		if op := s.Do(i, nil, harness.NoSpan); op.Err != nil {
			return nil, fmt.Errorf("warm-up: %w", op.Err)
		}
	}
	return s, nil
}

func (s *steadyInst) Count() int      { return len(s.guests) }
func (s *steadyInst) Candidates() int { return len(s.guests) }
func (s *steadyInst) Close()          {}

func readCounters(k *kernel.Kernel, d *steadyDetail) {
	c := k.Counters()
	d.dispatches, d.hops = c.Get("kernel.dispatches"), c.Get("kernel.msg_hops")
	d.storesLogged, d.storesTotalSeen = c.Get("memlog.stores_logged"), c.Get("memlog.stores_total")
}

func (s *steadyInst) Do(i int, tr *harness.Tracer, span int) harness.Op {
	g := s.guests[i]
	var d steadyDetail
	if g.program == "" {
		var report testsuite.Report
		sp := tr.Begin("boot.boot", span, i)
		sys := boot.Boot(suiteOptions(core.Config{Policy: g.policy, Seed: g.seed}), testsuite.RunnerInit(&report))
		tr.End(sp)
		sp = tr.Begin("kernel.run", span, i)
		res := sys.Run(faultinject.RunLimit)
		tr.End(sp)
		if tr != nil {
			readCounters(sys.Kernel(), &d)
		}
		d.cycles, d.ops = uint64(res.Cycles), report.Passed
		op := harness.Op{Cycles: d.cycles, Digest: fmt.Sprintf("suite|%v|%d|%d|%v", g.policy, report.Passed, res.Cycles, res.Outcome), Detail: d}
		if res.Outcome != kernel.OutcomeCompleted || !report.AllPassed() {
			op.Err = fmt.Errorf("fault-free suite under %v: %v (%s), %d/%d passed", g.policy, res.Outcome, res.Reason, report.Passed, report.Ran)
		}
		return op
	}
	b, _ := unixbench.ByName(g.program)
	var sys *boot.System
	sp := tr.Begin("unixbench.run", span, i)
	r := unixbench.RunOne(b, unixbench.Config{
		Policy: g.policy, Seed: g.seed, IterScale: steadyIterScale,
		Hook: func(booted *boot.System) { sys = booted },
	})
	tr.End(sp)
	if tr != nil && sys != nil {
		readCounters(sys.Kernel(), &d)
	}
	d.cycles, d.ops = uint64(r.Cycles), r.Ops
	op := harness.Op{Cycles: d.cycles, Digest: fmt.Sprintf("%s|%v|%d|%d|%v", r.Name, g.policy, r.Ops, r.Cycles, r.Outcome), Detail: d}
	if r.Outcome != kernel.OutcomeCompleted || r.Score <= 0 {
		op.Err = fmt.Errorf("%s under %v: %v (%s), score %.1f", r.Name, g.policy, r.Outcome, r.Reason, r.Score)
	}
	return op
}

func (s *steadyInst) Verify(i int, got harness.Op) error {
	again := s.Do(i, nil, harness.NoSpan)
	if again.Err != nil {
		return again.Err
	}
	if again.Cycles != got.Cycles {
		return fmt.Errorf("repeated guest took %d cycles, first took %d", again.Cycles, got.Cycles)
	}
	return nil
}

func (s *steadyInst) Layer(in harness.TraceInput, out map[string]float64) {
	var dispatches, hops, logged, total uint64
	for _, r := range in.Traced.Ops {
		d := r.Op.Detail.(steadyDetail)
		dispatches += d.dispatches
		hops += d.hops
		logged += d.storesLogged
		total += d.storesTotalSeen
	}
	out["kernel.dispatches"] = float64(dispatches)
	out["kernel.msg_hops"] = float64(hops)
	if dispatches > 0 {
		out["kernel.host_ns_per_dispatch"] = float64(in.Base.Wall.Nanoseconds()) / in.Base.HostFactor / float64(dispatches)
	}
	out["kernel.sim_mcycles_per_s"] = float64(in.Base.Cycles) / 1e6 / in.Base.Wall.Seconds() * in.Base.HostFactor
	out["memlog.stores_logged"] = float64(logged)
	out["memlog.stores_total"] = float64(total)
	if total > 0 {
		out["memlog.logged_ratio"] = float64(logged) / float64(total)
	}
}

// ---------------------------------------------------------------------
// persist_replay

// parkedSnap is a snapshot captured at a quiescence barrier, with what
// a fork of it needs and what the oracle compares against.
type parkedSnap struct {
	snap   *boot.Snapshot
	prefix testsuite.Report
	fp     uint64 // StateFingerprint of a fork of the original
}

type persistInst struct {
	seed   uint64
	reg    *usr.Registry
	snaps  []parkedSnap
	traces []faultinject.Trace
	count  int
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func forkFingerprint(snap *boot.Snapshot, prefix testsuite.Report, seed uint64) (uint64, error) {
	var report testsuite.Report
	sys, err := snap.Fork(boot.ForkParams{Seed: seed}, testsuite.RunnerResumeFrom(&report, prefix))
	if err != nil {
		return 0, err
	}
	defer sys.Shutdown("osirisbench: fingerprinted")
	return sys.StateFingerprint()
}

// captureRungs walks one fault-free machine and captures it at the boot
// barrier, a middle rung and the last rung.
func captureRungs(seed uint64) ([]parkedSnap, *usr.Registry, error) {
	opts := suiteOptions(core.Config{Policy: seep.PolicyEnhanced, Seed: seed})
	last := len(testsuite.Names()) - 1
	want := map[int]bool{0: true, last / 2: true, last: true}
	var report testsuite.Report
	sys := boot.Boot(opts, testsuite.RunnerInit(&report))
	defer sys.Shutdown("osirisbench: snapshots captured")
	var snaps []parkedSnap
	for r := 0; sys.Kernel().RunToBarrier(faultinject.RunLimit); r++ {
		if !want[r] {
			continue
		}
		snap, err := boot.CaptureParked(sys, opts)
		if err != nil {
			return nil, nil, err
		}
		ps := parkedSnap{snap: snap, prefix: report}
		ps.prefix.FailedNames = append([]string(nil), report.FailedNames...)
		if ps.fp, err = forkFingerprint(snap, ps.prefix, seed); err != nil {
			return nil, nil, err
		}
		snaps = append(snaps, ps)
	}
	if len(snaps) != len(want) {
		return nil, nil, fmt.Errorf("captured %d of %d snapshots", len(snaps), len(want))
	}
	return snaps, opts.Registry, nil
}

func newPersist(seed uint64, scale float64) (harness.Instance, error) {
	snaps, reg, err := captureRungs(seed)
	if err != nil {
		return nil, err
	}
	p := &persistInst{seed: seed, reg: reg, snaps: snaps, count: scaled(persistOps, scale)}

	// Record single-fault runs to replay. Only runs in which the suite
	// ran to its end are kept, so every replay op costs about the same;
	// entries are visited in a seeded order.
	profile, err := faultinject.Profile(seed)
	if err != nil {
		return nil, err
	}
	plan := stratifiedPlan(profile, 4, seed)
	rng := sim.NewRNG(seed ^ 0x7E57AB1E)
	for len(p.traces) < persistTraces && len(plan) > 0 {
		k := rng.Intn(len(plan))
		inj := plan[k]
		plan[k] = plan[len(plan)-1]
		plan = plan[:len(plan)-1]
		rr := faultinject.RunOne(seep.PolicyEnhanced, seed+uint64(k)*7919, inj)
		if rr.Triggered && rr.Reason == fullSuiteReason {
			p.traces = append(p.traces, faultinject.NewTrace(seep.PolicyEnhanced, rr, faultinject.IPCOptions{}))
		}
	}
	if len(p.traces) < persistTraces {
		return nil, fmt.Errorf("recorded %d of %d traces", len(p.traces), persistTraces)
	}
	return p, nil
}

func (p *persistInst) Count() int      { return p.count }
func (p *persistInst) Candidates() int { return p.count }
func (p *persistInst) Close()          {}

// roundTrip encodes the snapshot into memory, decodes it and forks the
// decoded image; it returns the image bytes and the live fork.
func (p *persistInst) roundTrip(i int, ps parkedSnap, compress bool, tr *harness.Tracer, span int) ([]byte, *boot.System, error) {
	var buf bytes.Buffer
	sp := tr.Begin("image.encode", span, i)
	err := image.WriteSnapshot(&buf, ps.snap, image.WriteOptions{Compress: compress, Workers: 1})
	tr.End(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.Begin("image.decode", span, i)
	dec, err := image.ReadSnapshot(bytes.NewReader(buf.Bytes()), p.reg, 1)
	tr.End(sp)
	if err != nil {
		return nil, nil, err
	}
	var report testsuite.Report
	sp = tr.Begin("boot.fork", span, i)
	sys, err := dec.Fork(boot.ForkParams{Seed: p.seed}, testsuite.RunnerResumeFrom(&report, ps.prefix))
	tr.End(sp)
	return buf.Bytes(), sys, err
}

func (p *persistInst) Do(i int, tr *harness.Tracer, span int) harness.Op {
	kind, slot := i%3, i/3
	if kind == 2 {
		t := p.traces[slot%len(p.traces)]
		sp := tr.Begin("faultinject.replay", span, i)
		got, err := t.Replay()
		tr.End(sp)
		if err != nil {
			return harness.Op{Err: err}
		}
		op := harness.Op{Digest: fmt.Sprintf("replay|%v|%d|%s|%v", got.Outcome, got.TestsFailed, got.Reason, got.Consistent)}
		if ok, diff := t.Matches(got); !ok {
			op.Err = fmt.Errorf("replay diverged: %s", diff)
		}
		return op
	}
	ps := p.snaps[slot%len(p.snaps)]
	data, sys, err := p.roundTrip(i, ps, kind == 1, tr, span)
	if err != nil {
		return harness.Op{Err: err}
	}
	sp := tr.Begin("boot.shutdown", span, i)
	sys.Shutdown("osirisbench: decoded fork torn down")
	tr.End(sp)
	return harness.Op{Digest: fmt.Sprintf("image|%d|%d|%08x", kind, len(data), crc32.Checksum(data, crcTable))}
}

func (p *persistInst) Verify(i int, _ harness.Op) error {
	kind, slot := i%3, i/3
	if kind == 2 {
		t := p.traces[slot%len(p.traces)]
		got, err := t.Replay()
		if err != nil {
			return err
		}
		if ok, diff := t.Matches(got); !ok {
			return fmt.Errorf("replay diverged: %s", diff)
		}
		return nil
	}
	ps := p.snaps[slot%len(p.snaps)]
	_, sys, err := p.roundTrip(i, ps, kind == 1, nil, harness.NoSpan)
	if err != nil {
		return err
	}
	defer sys.Shutdown("osirisbench: oracle fork torn down")
	fp, err := sys.StateFingerprint()
	if err != nil {
		return err
	}
	if fp != ps.fp {
		return fmt.Errorf("decoded fork fingerprints %016x, the original %016x", fp, ps.fp)
	}
	return nil
}

func (p *persistInst) Layer(harness.TraceInput, map[string]float64) {}

// ---------------------------------------------------------------------
// fixed-shape probes

// prober carries what every probe needs: the seed, where results go,
// and the calibrator that tracks host speed over the probe phase.
type prober struct {
	seed uint64
	cal  *harness.Calibrator
	out  map[string]float64
}

// timeN returns the median host time of fn over reps calls, in
// nanoseconds divided by per (the work items one call performs).
func (p *prober) timeN(reps, per int, fn func()) float64 {
	ns := make([]float64, reps)
	for r := range ns {
		t := time.Now()
		fn()
		ns[r] = float64(time.Since(t).Nanoseconds()) / float64(per)
		p.cal.Tick()
	}
	return harness.Median(ns)
}

func mustComplete(res kernel.Result) {
	if res.Outcome != kernel.OutcomeCompleted {
		panic(fmt.Sprintf("osirisbench probe: %v (%s)", res.Outcome, res.Reason))
	}
}

// Probes measures the fixed-shape micro-costs of every layer — the
// loops of the repository's go-test micro-benchmarks, sized to finish in
// about two seconds — and stores them under their per-layer names.
func Probes(seed uint64, tr *harness.Tracer, cal *harness.Calibrator, out map[string]float64) (err error) {
	p := &prober{seed: seed, cal: cal, out: out}
	root := tr.Begin("probes", harness.NoSpan, -1)
	defer tr.End(root)
	// A probe machine that does not run to completion panics (see
	// mustComplete); the traced run reports that as its error.
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%v", v)
		}
	}()
	probe := func(name string, fn func()) {
		sp := tr.Begin("probe."+name, root, -1)
		fn()
		tr.End(sp)
	}

	probe("faultinject", func() { err = p.faultinject() })
	if err != nil {
		return err
	}
	probe("kernel", p.kernel)
	probe("memlog", p.memlog)
	probe("core", p.recovery)
	probe("boot", func() { err = p.bootImage() })
	return err
}

func (p *prober) faultinject() error {
	seed, out := p.seed, p.out
	t := time.Now()
	profile, err := faultinject.Profile(seed)
	if err != nil {
		return err
	}
	out["faultinject.profile_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	cfg := faultinject.CampaignConfig{
		Policy: seep.PolicyEnhanced, Model: faultinject.FailStop, Seed: seed,
		SamplesPerSite: singleSamplesPerSite, Workers: 1,
	}
	var plan []faultinject.Injection
	out["faultinject.plan_us"] = p.timeN(5, 1, func() { plan = faultinject.PlanCampaign(cfg, profile) }) / 1e3
	// Plane set-up is lazy: the first armed run walks the ladder.
	t = time.Now()
	runner := faultinject.NewArmedRunner(cfg, plan)
	runner.Run(seed, plan[len(plan)/2])
	out["faultinject.plane_setup_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	runner.Close()
	return nil
}

func (p *prober) kernel() {
	seed, out := p.seed, p.out
	const batch, yields = 10000, 100000
	out["kernel.dispatch_ns"] = p.timeN(9, yields, func() {
		k := kernel.New(kernel.DefaultCostModel(), seed)
		p := k.SpawnUser("yielder", func(ctx *kernel.Context) {
			for j := 0; j < yields; j++ {
				ctx.Yield()
			}
		})
		k.SetRootProcess(p.Endpoint())
		mustComplete(k.Run(1 << 62))
	})
	roundTrip := func(reliable bool) func() {
		return func() {
			k := kernel.New(kernel.DefaultCostModel(), seed)
			if reliable {
				k.SetIPCFaultPlane(kernel.IPCFaultConfig{},
					kernel.IPCReliability{TimeoutCycles: sim.Cycles(core.DefaultIPCTimeoutCycles)}, seed)
			}
			const epEcho = kernel.Endpoint(10)
			k.AddServer(epEcho, "echo", func(ctx *kernel.Context) {
				for {
					m := ctx.Receive()
					ctx.Reply(m.From, kernel.Message{A: m.A})
				}
			}, kernel.ServerConfig{})
			p := k.SpawnUser("client", func(ctx *kernel.Context) {
				for j := 0; j < batch; j++ {
					ctx.SendRec(epEcho, kernel.Message{A: int64(j)})
				}
			})
			k.SetRootProcess(p.Endpoint())
			mustComplete(k.Run(1 << 62))
		}
	}
	out["kernel.ipc_roundtrip_ns"] = p.timeN(9, batch, roundTrip(false))
	out["kernel.ipc_reliable_roundtrip_ns"] = p.timeN(9, batch, roundTrip(true))
}

func (p *prober) memlog() {
	out := p.out
	const stores = 200_000
	for _, open := range []bool{true, false} {
		st := memlog.NewStore("probe", memlog.Optimized)
		st.SetLogging(open)
		cell := memlog.NewCell(st, "x", 0)
		name := "memlog.store_closed_ns"
		if open {
			name = "memlog.store_open_ns"
		}
		out[name] = p.timeN(9, stores, func() {
			for i := 0; i < stores; i++ {
				cell.Set(i)
				if open && i%1024 == 0 {
					st.Checkpoint()
				}
			}
		})
	}

	st := memlog.NewStore("probe", memlog.Optimized)
	st.SetLogging(true)
	cell := memlog.NewCell(st, "x", 0)
	m := memlog.NewMap[int, int](st, "m")
	dirty := func() {
		for j := 0; j < 128; j++ {
			cell.Set(j)
			m.Set(j&15, j)
		}
	}
	// A 256-entry window: checkpoint_us commits it, rollback_us undoes it.
	const rounds = 200
	var cks, rbs []float64
	for rep := 0; rep < 9; rep++ {
		var ck, rb time.Duration
		for i := 0; i < rounds; i++ {
			dirty()
			t := time.Now()
			st.Checkpoint()
			ck += time.Since(t)
			dirty()
			t = time.Now()
			st.Rollback()
			rb += time.Since(t)
		}
		cks = append(cks, float64(ck.Nanoseconds())/rounds)
		rbs = append(rbs, float64(rb.Nanoseconds())/rounds)
		p.cal.Tick()
	}
	out["memlog.checkpoint_us"] = harness.Median(cks) / 1e3
	out["memlog.rollback_us"] = harness.Median(rbs) / 1e3

	big := memlog.NewStore("probe", memlog.Baseline)
	bm := memlog.NewMap[int, int](big, "m")
	for i := 0; i < 4096; i++ {
		bm.Set(i, i)
	}
	out["memlog.clone_us"] = p.timeN(9, 20, func() {
		for i := 0; i < 20; i++ {
			_ = big.Clone()
		}
	}) / 1e3
}

// probeRecovery measures one crash recovery: the host time of a batch
// of DS requests with a fail-stop fault injected into each, minus the
// same batch fault-free, per recovery.
func (p *prober) recovery() {
	seed, out := p.seed, p.out
	const batch = 20
	run := func(inject bool) (time.Duration, int) {
		sys := boot.Boot(boot.Options{Config: core.Config{Policy: seep.PolicyEnhanced, Seed: seed}}, func(p *usr.Proc) int {
			for j := 0; j < batch; j++ {
				p.DsPut("k", "v")
			}
			return 0
		})
		if inject {
			sys.Kernel().SetPointHook(func(_ kernel.Endpoint, _, site string) {
				if site == "ds.put.applied" {
					panic("osirisbench: injected fault")
				}
			})
		}
		t := time.Now()
		mustComplete(sys.Run(faultinject.RunLimit))
		return time.Since(t), sys.Recoveries
	}
	var with, without []float64
	recoveries := 0
	for r := 0; r < 9; r++ {
		d, n := run(true)
		with, recoveries = append(with, float64(d.Nanoseconds())), n
		d, _ = run(false)
		without = append(without, float64(d.Nanoseconds()))
		p.cal.Tick()
	}
	if recoveries > 0 {
		out["core.recovery_us"] = (harness.Median(with) - harness.Median(without)) / float64(recoveries) / 1e3
	}
}

// probeBootImage measures the boot, snapshot, fork, fingerprint, audit
// and image costs on one fault-free machine walked to a middle rung.
func (p *prober) bootImage() error {
	seed, out := p.seed, p.out
	opts := suiteOptions(singleFaultConfig(seed))
	var sys *boot.System
	var report testsuite.Report
	out["boot.cold_boot_ms"] = p.timeN(5, 1, func() {
		if sys != nil {
			sys.Shutdown("osirisbench: boot probed")
		}
		report = testsuite.Report{}
		sys = boot.Boot(opts, testsuite.RunnerInit(&report))
		if !sys.Kernel().RunToBarrier(faultinject.RunLimit) {
			panic("osirisbench probe: boot barrier not reached")
		}
	}) / 1e6
	defer func() { sys.Shutdown("osirisbench: boot probed") }()

	var bootSnap *boot.Snapshot
	var err error
	out["boot.capture_us"] = p.timeN(9, 1, func() { bootSnap, err = boot.CaptureParked(sys, opts) }) / 1e3
	if err != nil {
		return err
	}
	out["boot.snapshot_bytes"] = float64(bootSnap.SizeBytes())

	if _, err = sys.StateFingerprint(); err != nil {
		return err
	}
	out["boot.fingerprint_clean_ns"] = p.timeN(99, 1, func() { sys.StateFingerprint() })
	// One program later: the rolling hash re-mixes what that program dirtied.
	mid := len(testsuite.Names()) / 2
	var dirtyNS []float64
	for r := 1; r <= mid; r++ {
		if !sys.Kernel().RunToBarrier(faultinject.RunLimit) {
			return fmt.Errorf("probe machine ended at rung %d", r)
		}
		t := time.Now()
		sys.StateFingerprint()
		dirtyNS = append(dirtyNS, float64(time.Since(t).Nanoseconds()))
	}
	out["boot.fingerprint_dirty_us"] = harness.Median(dirtyNS) / 1e3
	out["audit.check_us"] = p.timeN(9, 1, func() { audit.Check(audit.Capture(sys.OS)) }) / 1e3

	midSnap, err := boot.CaptureParked(sys, opts)
	if err != nil {
		return err
	}
	midPrefix := report
	midPrefix.FailedNames = append([]string(nil), report.FailedNames...)

	var shutdownNS []float64
	fork := func(snap *boot.Snapshot, prefix testsuite.Report) func() {
		return func() {
			var rep testsuite.Report
			forked, ferr := snap.Fork(boot.ForkParams{Seed: seed}, testsuite.RunnerResumeFrom(&rep, prefix))
			if ferr != nil {
				panic(ferr)
			}
			t := time.Now()
			forked.Shutdown("osirisbench: fork probed")
			shutdownNS = append(shutdownNS, float64(time.Since(t).Nanoseconds()))
		}
	}
	// fork_us includes the teardown it is timed with; shutdown_us is
	// subtracted so the two add up to one fork-and-discard.
	forkBoot := p.timeN(15, 1, fork(bootSnap, testsuite.Report{}))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	forkMid := p.timeN(15, 1, fork(midSnap, midPrefix))
	runtime.ReadMemStats(&ms1)
	shutdown := harness.Median(shutdownNS)
	out["boot.shutdown_us"] = shutdown / 1e3
	out["boot.fork_us.boot"] = (forkBoot - shutdown) / 1e3
	out["boot.fork_us.mid"] = (forkMid - shutdown) / 1e3
	out["boot.fork_alloc_kb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 15 / 1024

	var raw, flate bytes.Buffer
	encode := func(buf *bytes.Buffer, compress bool) func() {
		return func() {
			buf.Reset()
			if werr := image.WriteSnapshot(buf, midSnap, image.WriteOptions{Compress: compress, Workers: 1}); werr != nil {
				panic(werr)
			}
		}
	}
	decode := func(buf *bytes.Buffer) func() {
		return func() {
			if _, rerr := image.ReadSnapshot(bytes.NewReader(buf.Bytes()), opts.Registry, 1); rerr != nil {
				panic(rerr)
			}
		}
	}
	out["image.encode_us.raw"] = p.timeN(9, 1, encode(&raw, false)) / 1e3
	out["image.encode_us.flate"] = p.timeN(5, 1, encode(&flate, true)) / 1e3
	out["image.decode_us.raw"] = p.timeN(9, 1, decode(&raw)) / 1e3
	out["image.decode_us.flate"] = p.timeN(9, 1, decode(&flate)) / 1e3
	out["image.bytes.raw"] = float64(raw.Len())
	if flate.Len() > 0 {
		out["image.flate_ratio"] = float64(raw.Len()) / float64(flate.Len())
	}

	profile, err := faultinject.Profile(seed)
	if err != nil {
		return err
	}
	plan := stratifiedPlan(profile, 1, seed)
	rr := faultinject.RunOne(seep.PolicyEnhanced, seed, plan[0])
	trace := faultinject.NewTrace(seep.PolicyEnhanced, rr, faultinject.IPCOptions{})
	out["image.replay_ms"] = p.timeN(5, 1, func() {
		got, rerr := trace.Replay()
		if rerr != nil {
			panic(rerr)
		}
		if ok, diff := trace.Matches(got); !ok {
			panic("osirisbench probe: replay diverged: " + diff)
		}
	}) / 1e6
	return nil
}

// LayerUnits lists every per-layer metric a traced run reports, with
// its unit. Metrics a workload does not exercise read zero there.
func LayerUnits() map[string]string {
	names := [][2]string{
		{"faultinject.profile_ms", "ms"}, {"faultinject.plan_us", "us"}, {"faultinject.plane_setup_ms", "ms"},
		{"faultinject.runs", "count"}, {"faultinject.ladder_forks", "count"}, {"faultinject.boot_forks", "count"},
		{"faultinject.cold_boots", "count"}, {"faultinject.elided", "count"}, {"faultinject.elide_hit_ratio", "ratio"},
		{"faultinject.fallback.fault-untriggered", "count"}, {"faultinject.fallback.fingerprint-mismatch", "count"},
		{"faultinject.fallback.state-residue", "count"}, {"faultinject.fallback.tail-unavailable", "count"},
		{"faultinject.run_ms_p50.elided", "ms"}, {"faultinject.run_ms_p50.full", "ms"}, {"faultinject.run_ms_p50.cold", "ms"},
		{"faultinject.wall_share.elided", "ratio"}, {"faultinject.wall_share.full", "ratio"},
		{"faultinject.wall_share.cold", "ratio"}, {"faultinject.wall_share.cycle_limit", "ratio"},
		{"faultinject.outcome.pass", "count"}, {"faultinject.outcome.fail", "count"}, {"faultinject.outcome.shutdown", "count"},
		{"faultinject.outcome.crash", "count"}, {"faultinject.outcome.degraded", "count"}, {"faultinject.consistent", "count"},
		{"boot.cold_boot_ms", "ms"}, {"boot.capture_us", "us"}, {"boot.fork_us.boot", "us"}, {"boot.fork_us.mid", "us"},
		{"boot.fork_alloc_kb", "KiB"}, {"boot.fingerprint_clean_ns", "ns"}, {"boot.fingerprint_dirty_us", "us"},
		{"boot.snapshot_bytes", "B"}, {"boot.shutdown_us", "us"},
		{"kernel.dispatch_ns", "ns"}, {"kernel.ipc_roundtrip_ns", "ns"}, {"kernel.ipc_reliable_roundtrip_ns", "ns"},
		{"kernel.dispatches", "count"}, {"kernel.msg_hops", "count"}, {"kernel.host_ns_per_dispatch", "ns"},
		{"kernel.sim_mcycles_per_s", "Mcycle/s"},
		{"memlog.store_open_ns", "ns"}, {"memlog.store_closed_ns", "ns"}, {"memlog.checkpoint_us", "us"},
		{"memlog.rollback_us", "us"}, {"memlog.clone_us", "us"}, {"memlog.stores_logged", "count"},
		{"memlog.stores_total", "count"}, {"memlog.logged_ratio", "ratio"},
		{"core.recoveries", "count"}, {"core.recovery_us", "us"}, {"core.quarantines", "count"},
		{"audit.check_us", "us"},
		{"image.encode_us.raw", "us"}, {"image.encode_us.flate", "us"}, {"image.decode_us.raw", "us"},
		{"image.decode_us.flate", "us"}, {"image.bytes.raw", "B"}, {"image.flate_ratio", "ratio"}, {"image.replay_ms", "ms"},
		{"parallel.workers", "count"}, {"parallel.speedup", "ratio"}, {"parallel.efficiency", "ratio"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cpu_share", "ratio"},
		{"trace.spans", "count"}, {"trace.overhead_pct", "%"},
	}
	units := make(map[string]string, len(names))
	for _, n := range names {
		units[n[0]] = n[1]
	}
	return units
}
