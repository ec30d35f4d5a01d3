package faultinject

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/seep"
)

// The differential runner. Warm forks, ladder rungs, tail elision and the
// wedge certificate are legitimate only because every run they serve is
// bit-identical to a cold boot, at any worker count, resumed or not. Each
// row of the corpus below is one campaign; each of its cells serves the
// campaign one way and is compared with the row's oracle: the campaign
// booted cold at workers 1 (a campaign row), or every run booted cold on
// its own by RunOne or RunMultiWith (a stratified row). The oracle is
// simulated once per test binary and shared by every cell that reads it.
//
// Cells are named <serving>-w<workers>:
//
//	default   the warm plane as campaigns run it
//	noelide   PlaneOptions{NoElide: true}: every warm run executed in full
//	trio      default, cold and noelide served concurrently in one process
//	repeat    default served twice in a row
//	torn      default, resumed from the oracle's journal cut at 60 %
//	corrupt   default, resumed from the oracle's journal with a corrupt tail
//
// Every cell is checked for the serving accounting (its plane statistics
// are exactly its per-run decisions, and every warm run is elided,
// wedged or charged one elision fallback) and for what its plane
// promises. A row's default cells also serve every run from the same
// rung at every worker count, and show what the row's checks ask for.
// The rows named wedge-bench-* are osirisbench's campaign_single plans at
// benchmark size; they are skipped under -race and -short.

// scenario is one row of the corpus.
type scenario struct {
	Name string
	// Kind is kindSingle, kindMulti, or kindBackground for an IPC
	// fault-rate sweep.
	Kind   runKind
	Policy seep.Policy
	Model  Model
	Seed   uint64
	IPC    IPCOptions
	Plan   planSpec
	Checks checks
	// Cells lists the cells the row is served under, space-separated.
	Cells string
	// Bench marks a benchmark-size row: skipped under -race and -short,
	// and only the runs that end at the cycle limit or are served wedged
	// are booted cold for its oracle.
	Bench bool

	planOnce sync.Once
	planned  planned
	planErr  error
	oracle   oracle
	// split is the fork decisions of the row's first default serving,
	// whichever test served it.
	splitMu sync.Mutex
	split   []Serving
}

// planSpec picks a row's runs. A campaign row (Stratified == 0) plans
// them the way its public entry point does and is served through it:
// RunCampaign, RunMultiCampaign or SweepIPC. A stratified row serves
// an explicit plan run by run through a warm runner, the way
// osirisbench builds its campaigns.
type planSpec struct {
	Samples, MaxRuns int   // a single-fault campaign
	Faults, Runs     int   // a multi-fault campaign; Runs is also a sweep's boots per rate
	Rates            []int // a sweep's points, in basis points
	// Stratified is the fail-stop injections per candidate site of a
	// stratified plan, Sites (when set) the sites it is cut down to. A
	// multi-fault row takes every other injection and chases it with a
	// correlated crash of its own site.
	Stratified int
	Sites      map[string]bool
}

// checks are what a row's default cells must show beyond equality.
type checks struct {
	// Elided and Rejoined ask for at least one run so served.
	Elided, Rejoined bool
	// Certified asks that the runs served wedged be exactly the runs
	// that end at the cycle limit, and that there be some.
	Certified bool
	// Wedges, when set, is what the row expects of its wedged runs: each
	// one's plan index and serving decision. No result shows how many
	// equal idle rounds the certificate waited for — a window two
	// rounds long leaves every run equal to its cold boot, because the
	// transient digest already refuses the states Recovery Server is
	// counting in — so the certification cycle is pinned instead.
	Wedges []string
	// Fallbacks lists elision fallbacks at least one run is charged.
	Fallbacks []string
	// Held asks that every ladder hold every stride rung it walked, up
	// to the first capture the machine refuses.
	Held bool
}

// planned is a row's plan, computed once.
type planned struct {
	profile []SiteProfile
	single  []Injection
	multi   [][]MultiInjection
}

// served is what one serving of a row observed.
type served struct {
	agg   any       // the campaign aggregate; nil for a stratified row
	runs  []any     // per-run results in plan order; nil for a sweep
	sv    []Serving // per-run serving decisions, parallel to runs
	stats PlaneStats
	// ladders are the warm runner's ladders (stratified rows only).
	ladders map[planeClass]*ladder
}

// oracle is a row's reference serving and the number of times this test
// binary simulated it.
type oracle struct {
	mu   sync.Mutex
	sims int
	out  served
}

const cycleLimitReason = "cycle limit exceeded"

var corpus = append([]*scenario{
	{Name: "single-failstop", Kind: kindSingle, Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42,
		Plan:   planSpec{Samples: 1, MaxRuns: 24},
		Checks: checks{Elided: true, Fallbacks: []string{ElideFallbackEndedEarly, ElideFallbackMismatch}},
		Cells:  "default-w1 default-w2 default-w8 trio-w1"},
	{Name: "single-edfi", Kind: kindSingle, Policy: seep.PolicyEnhanced, Model: FullEDFI, Seed: 42,
		Plan:  planSpec{Samples: 1, MaxRuns: 48},
		Cells: "default-w1 default-w2 default-w8 torn-w1 torn-w2 torn-w8 corrupt-w1 corrupt-w2 corrupt-w8"},
	{Name: "single-ipcmix", Kind: kindSingle, Policy: seep.PolicyEnhanced, Model: IPCMix, Seed: 42,
		Plan:  planSpec{Samples: 1, MaxRuns: 12},
		Cells: "default-w1 default-w2 default-w8 repeat-w4"},
	{Name: "single-failstop-ipcnoise", Kind: kindSingle, Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42,
		IPC:   IPCOptions{Faults: kernel.IPCFaultConfig{DropBP: 50, CorruptBP: 50}, Seed: 0xABCD},
		Plan:  planSpec{Samples: 1, MaxRuns: 10},
		Cells: "default-w2 default-w8"},
	{Name: "multi-edfi", Kind: kindMulti, Policy: seep.PolicyEnhanced, Model: FullEDFI, Seed: 42,
		Plan:  planSpec{Faults: 3, Runs: 12},
		Cells: "default-w1 default-w2 default-w8"},
	{Name: "multi-failstop", Kind: kindMulti, Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42,
		Plan:  planSpec{Faults: 2, Runs: 12},
		Cells: "noelide-w1 default-w1 default-w2 default-w4 default-w8 torn-w8 corrupt-w8"},
	{Name: "sweep", Kind: kindBackground, Policy: seep.PolicyEnhanced, Seed: 42,
		Plan:  planSpec{Rates: []int{0, 25, 50, 200}, Runs: 3},
		Cells: "default-w1 default-w2 default-w8"},
	{Name: "rejoin-single", Kind: kindSingle, Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42,
		Plan:   planSpec{Stratified: 40, Sites: rejoinSites},
		Checks: checks{Rejoined: true},
		Cells:  "noelide-w2 default-w1 default-w2 default-w8"},
	{Name: "rejoin-multi", Kind: kindMulti, Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42,
		Plan:   planSpec{Stratified: 40, Sites: rejoinSites},
		Checks: checks{Rejoined: true},
		Cells:  "noelide-w2 default-w1 default-w2 default-w8"},
	{Name: "wedge-small", Kind: kindSingle, Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42,
		Plan:   planSpec{Stratified: 2},
		Checks: checks{Certified: true, Held: true, Wedges: []string{"run 116 rung:52 wedged:6614431", "run 117 rung:60 wedged:7379203"}},
		Cells:  "noelide-w2 default-w1 default-w2 default-w8"},
}, benchWedgeRows()...)

// benchWedgeRows are osirisbench's campaign_single plans, 40 per site,
// under both policies at three seeds: 15 252 runs, 226 of them hangs.
// Every hang is booted cold; the plans are served at workers 2, the
// small rows keep workers 1.
func benchWedgeRows() []*scenario {
	var rows []*scenario
	for _, seed := range []uint64{42, 7, 1234} {
		for _, policy := range []seep.Policy{seep.PolicyEnhanced, seep.PolicyPessimistic} {
			rows = append(rows, &scenario{
				Name: fmt.Sprintf("wedge-bench-%v-%d", policy, seed), Kind: kindSingle,
				Policy: policy, Model: FailStop, Seed: seed,
				Plan:   planSpec{Stratified: 40},
				Checks: checks{Certified: true},
				Cells:  "default-w2", Bench: true,
			})
		}
	}
	return rows
}

// row returns the corpus row of that name.
func row(t *testing.T, name string) *scenario {
	t.Helper()
	for _, s := range corpus {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no corpus row %q", name)
	return nil
}

// entries are the named tests that serve part of the corpus: each serves
// the cells it lists of the rows it names, and TestDifferential serves
// every cell no entry lists. Every cell of every row is served by exactly
// one test, so a test binary serves each cell once per -count pass.
var entries = map[string]map[string]string{
	"TestWarmForkEquivalenceSingleFaultCampaign": {"single-edfi": "default-w2 default-w8"},
	"TestWarmForkEquivalenceRunDetail":           {"single-edfi": "default-w1"},
	"TestCampaignResumeBitIdentical": {
		"single-edfi": "torn-w1 torn-w2 torn-w8 corrupt-w1 corrupt-w2 corrupt-w8"},
	"TestElideEquivalence":                            {"single-failstop": "default-w1"},
	"TestRunCampaignIdenticalAcrossWorkerCounts":      {"single-failstop": "default-w2 default-w8"},
	"TestWarmForkEquivalenceIPCMixCampaign":           {"single-ipcmix": "default-w1"},
	"TestIPCMixCampaignIdenticalAcrossWorkerCounts":   {"single-ipcmix": "default-w2 default-w8"},
	"TestElideEquivalenceMulti":                       {"multi-failstop": "noelide-w1 default-w1 default-w4"},
	"TestRunMultiCampaignIdenticalAcrossWorkerCounts": {"multi-failstop": "default-w2 default-w8"},
	"TestWarmForkEquivalenceIPCSweep":                 {"sweep": "default-w1"},
	"TestSweepIPCIdenticalAcrossWorkerCounts":         {"sweep": "default-w2 default-w8"},
	"TestWedgeEquivalence":                            {"wedge-small": "default-w1"},
	"TestLadderServingIndependentOfWorkers":           {"wedge-small": "default-w2 default-w8"},
}

func TestDifferential(t *testing.T) {
	claimed := map[string]string{} // row/cell → the entry that serves it
	for entry, rows := range entries {
		for name, cells := range rows {
			s := row(t, name)
			for _, c := range strings.Fields(cells) {
				if !slices.Contains(strings.Fields(s.Cells), c) {
					t.Errorf("%s serves %s/%s, which the row does not list", entry, name, c)
				}
				if other, ok := claimed[name+"/"+c]; ok {
					t.Errorf("%s/%s is served by both %s and %s", name, c, entry, other)
				}
				claimed[name+"/"+c] = entry
			}
		}
	}
	serveCorpus(t, func(s *scenario) []string {
		return slices.DeleteFunc(strings.Fields(s.Cells), func(c string) bool {
			return claimed[s.Name+"/"+c] != ""
		})
	})
}

func TestWarmForkEquivalenceSingleFaultCampaign(t *testing.T)      { serveEntry(t) }
func TestWarmForkEquivalenceRunDetail(t *testing.T)                { serveEntry(t) }
func TestCampaignResumeBitIdentical(t *testing.T)                  { serveEntry(t) }
func TestElideEquivalence(t *testing.T)                            { serveEntry(t) }
func TestRunCampaignIdenticalAcrossWorkerCounts(t *testing.T)      { serveEntry(t) }
func TestWarmForkEquivalenceIPCMixCampaign(t *testing.T)           { serveEntry(t) }
func TestIPCMixCampaignIdenticalAcrossWorkerCounts(t *testing.T)   { serveEntry(t) }
func TestElideEquivalenceMulti(t *testing.T)                       { serveEntry(t) }
func TestRunMultiCampaignIdenticalAcrossWorkerCounts(t *testing.T) { serveEntry(t) }
func TestWarmForkEquivalenceIPCSweep(t *testing.T)                 { serveEntry(t) }
func TestSweepIPCIdenticalAcrossWorkerCounts(t *testing.T)         { serveEntry(t) }
func TestWedgeEquivalence(t *testing.T)                            { serveEntry(t) }
func TestLadderServingIndependentOfWorkers(t *testing.T)           { serveEntry(t) }

// serveEntry serves the cells entries lists under the calling test's name.
func serveEntry(t *testing.T) {
	rows, ok := entries[t.Name()]
	if !ok {
		t.Fatalf("%s is not an entry of the corpus", t.Name())
	}
	serveCorpus(t, func(s *scenario) []string { return strings.Fields(rows[s.Name]) })
}

// serveCorpus serves each row under the cells that pick returns for it,
// one parallel subtest per row that has any.
func serveCorpus(t *testing.T, pick func(*scenario) []string) {
	for _, s := range corpus {
		cells := pick(s)
		if len(cells) == 0 {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			if s.Bench && (raceEnabled || testing.Short()) {
				t.Skip("benchmark-size row: not under -race or -short")
			}
			t.Parallel()
			for _, name := range cells {
				t.Run(name, func(t *testing.T) { s.cell(t, name) })
			}
		})
	}
}

// cell serves the row under one cell and checks every serving it made.
func (s *scenario) cell(t *testing.T, name string) {
	kind, w, _ := strings.Cut(name, "-w")
	workers, err := strconv.Atoi(w)
	if err != nil {
		t.Fatalf("cell %q: no worker count", name)
	}
	def, cold, noElide := PlaneOptions{}, PlaneOptions{ColdBoot: true}, PlaneOptions{NoElide: true}
	switch kind {
	case "default":
		got := s.serve(t, def, workers, nil)
		s.check(t, def, got)
		s.checkDefault(t, got)
	case "noelide":
		s.check(t, noElide, s.serve(t, noElide, workers, nil))
	case "repeat":
		for range 2 {
			got := s.serve(t, def, workers, nil)
			s.check(t, def, got)
			s.checkDefault(t, got)
		}
	case "trio":
		planes := []PlaneOptions{def, cold, noElide}
		got := make([]served, len(planes))
		s.plan(t) // before the goroutines: it may fail t
		var wg sync.WaitGroup
		for i, plane := range planes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = s.serve(t, plane, workers, nil)
			}()
		}
		wg.Wait()
		for i, plane := range planes {
			s.check(t, plane, got[i])
		}
		s.checkDefault(t, got[0])
	case "torn", "corrupt":
		s.check(t, def, s.resume(t, kind, workers))
	default:
		t.Fatalf("unknown cell %q", name)
	}
}

// plan returns the row's plan.
func (s *scenario) plan(t *testing.T) planned {
	s.planOnce.Do(func() {
		profile, err := Profile(s.Seed)
		if err != nil {
			s.planErr = err
			return
		}
		p := planned{profile: profile}
		switch {
		case s.Plan.Stratified > 0:
			if s.Plan.Sites != nil {
				var sites []SiteProfile
				for _, sp := range profile {
					if s.Plan.Sites[sp.Site] {
						sites = append(sites, sp)
					}
				}
				profile = sites
			}
			p.single = stratifiedPlan(profile, s.Plan.Stratified, s.Seed)
			if s.Kind == kindMulti {
				for i := 0; i < len(p.single); i += 2 {
					inj := p.single[i]
					p.multi = append(p.multi, []MultiInjection{
						{Injection: inj},
						{Injection: Injection{Server: inj.Server, Site: inj.Site, Occurrence: 1, Type: FaultCrash}, Correlated: true},
					})
				}
				p.single = nil
			}
		case s.Kind == kindSingle:
			p.single = PlanCampaign(s.campaign(), profile)
		case s.Kind == kindMulti:
			p.multi = PlanMultiCampaign(s.multiCampaign(), profile)
		}
		s.planned = p
	})
	if s.planErr != nil {
		t.Fatal(s.planErr)
	}
	return s.planned
}

// runs is the number of runs the row serves.
func (s *scenario) runs(t *testing.T) int {
	p := s.plan(t)
	if s.Kind == kindBackground {
		return len(s.Plan.Rates) * s.Plan.Runs
	}
	return len(p.single) + len(p.multi)
}

// campaign is the row as a single-fault campaign configuration.
func (s *scenario) campaign() CampaignConfig {
	return CampaignConfig{
		Policy: s.Policy, Model: s.Model, Seed: s.Seed, IPC: s.IPC,
		SamplesPerSite: s.Plan.Samples, MaxRuns: s.Plan.MaxRuns,
	}
}

// multiCampaign is the row as a multi-fault campaign configuration.
func (s *scenario) multiCampaign() MultiCampaignConfig {
	return MultiCampaignConfig{
		Policy: s.Policy, Model: s.Model, Seed: s.Seed, IPC: s.IPC,
		Faults: s.Plan.Faults, Runs: s.Plan.Runs,
	}
}

// serve serves the row once under plane at the given worker count,
// resuming from j when it is set.
func (s *scenario) serve(t *testing.T, plane PlaneOptions, workers int, j *Journal) served {
	p := s.plan(t)
	var out served
	onServe := func(_ int, sv Serving) { out.sv = append(out.sv, sv) }
	switch {
	case s.Kind == kindBackground:
		out.agg, out.stats = SweepIPC(SweepConfig{
			Policy: s.Policy, Seed: s.Seed, RatesBP: s.Plan.Rates, Runs: s.Plan.Runs,
			Workers: workers, Plane: plane,
		})
	case s.Plan.Stratified == 0 && s.Kind == kindSingle:
		cfg := s.campaign()
		cfg.Workers, cfg.Plane, cfg.Journal, cfg.OnServe = workers, plane, j, onServe
		cfg.OnResult = func(_ int, rr RunResult) { out.runs = append(out.runs, rr) }
		out.agg, out.stats = RunCampaign(cfg, p.profile)
	case s.Plan.Stratified == 0:
		cfg := s.multiCampaign()
		cfg.Workers, cfg.Plane, cfg.Journal, cfg.OnServe = workers, plane, j, onServe
		cfg.OnResult = func(_ int, rr MultiRunResult) { out.runs = append(out.runs, rr) }
		out.agg, out.stats = RunMultiCampaign(cfg, p.profile)
	case s.Kind == kindSingle:
		cfg := s.campaign()
		cfg.Plane = plane
		runner := NewArmedRunner(cfg, p.single)
		defer runner.Close()
		out.sv = make([]Serving, len(p.single))
		out.runs = parallel.Map(workers, len(p.single), func(i int) any {
			rr, sv := runner.serve(s.Seed+uint64(i)*7919, p.single[i])
			out.sv[i] = sv
			return rr
		})
		out.stats, out.ladders = runner.Stats(), runner.r.ladders
	default:
		cfg := s.multiCampaign()
		cfg.Plane = plane
		runner := newMultiRunner(cfg, p.multi)
		defer runner.close()
		out.sv = make([]Serving, len(p.multi))
		out.runs = parallel.Map(workers, len(p.multi), func(i int) any {
			rr, sv := runner.run(s.Seed+uint64(i)*104729, multiSpec(p.multi[i], s.IPC))
			out.sv[i] = sv
			return rr
		})
		out.stats, out.ladders = runner.Stats(), runner.ladders
	}
	return out
}

// reference returns the row's oracle, covering at least the runs in want
// (nil: every run). The first call simulates it; a later call that needs
// a run the first did not cover simulates again, and the count says so.
func (s *scenario) reference(t *testing.T, want []int) *served {
	t.Helper()
	o := &s.oracle
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sims == 0 || !o.covers(want) {
		o.sims++
		s.simulateOracle(t, want)
	}
	if o.sims != 1 {
		t.Errorf("the oracle of %s was simulated %d times in this test binary", s.Name, o.sims)
	}
	return &o.out
}

// covers reports whether the oracle holds every run in want.
func (o *oracle) covers(want []int) bool {
	if o.out.agg != nil {
		return true
	}
	for i, rr := range o.out.runs {
		if rr == nil && (want == nil || slices.Contains(want, i)) {
			return false
		}
	}
	return true
}

// simulateOracle fills the row's oracle: a campaign row booted cold at
// workers 1, or the runs in want (nil: all) of a stratified row each
// booted cold on its own. Caller holds the oracle's lock.
func (s *scenario) simulateOracle(t *testing.T, want []int) {
	o := &s.oracle
	if s.Plan.Stratified == 0 {
		o.out = s.serve(t, PlaneOptions{ColdBoot: true}, 1, nil)
		return
	}
	n, p := s.runs(t), s.plan(t)
	if o.out.runs == nil {
		o.out.runs = make([]any, n)
	}
	if want == nil {
		want = make([]int, n)
		for i := range want {
			want[i] = i
		}
	}
	cold := parallel.Map(0, len(want), func(j int) any {
		i := want[j]
		if s.Kind == kindMulti {
			return RunMultiWith(s.Policy, s.Seed+uint64(i)*104729, p.multi[i], s.IPC)
		}
		return RunOneWith(s.Policy, s.Seed+uint64(i)*7919, p.single[i], s.IPC)
	})
	for j, i := range want {
		o.out.runs[i] = cold[j]
	}
}

// check compares one serving with the row's oracle and checks the
// serving accounting and what plane promises.
func (s *scenario) check(t *testing.T, plane PlaneOptions, got served) {
	t.Helper()
	var want []int
	if s.Bench {
		want = []int{}
		for i, rr := range got.runs {
			if hung(rr) || got.sv[i].Plane == PlaneWedged {
				want = append(want, i)
			}
		}
	}
	o := s.reference(t, want)
	if !reflect.DeepEqual(o.agg, got.agg) {
		t.Errorf("aggregate differs from the oracle's:\noracle: %+v\nserved: %+v", o.agg, got.agg)
	}
	if got.runs != nil && len(got.runs) != len(o.runs) {
		t.Fatalf("served %d runs, the oracle %d", len(got.runs), len(o.runs))
	}
	for i, rr := range got.runs {
		if o.runs[i] != nil && !reflect.DeepEqual(o.runs[i], rr) {
			t.Errorf("run %d (%s) differs from its cold boot:\ncold:   %+v\nserved: %+v", i, got.sv[i], o.runs[i], rr)
		}
	}

	st := got.stats
	assertElisionAccounted(t, st)
	executed := s.runs(t)
	if got.sv != nil {
		var replay PlaneStats
		for _, sv := range got.sv {
			replay.add(sv)
			if sv.Plane == PlaneJournal {
				executed--
			}
		}
		if !reflect.DeepEqual(replay, st) {
			t.Errorf("plane statistics are not the per-run decisions:\nstats:     %+v\ndecisions: %+v", st, replay)
		}
	}
	if st.Total() != executed {
		t.Errorf("statistics cover %d runs, %d were executed", st.Total(), executed)
	}
	warm := st.LadderForks + st.BootForks
	switch {
	case plane.ColdBoot:
		if warm != 0 || st.Fallbacks[FallbackColdBootPinned] != st.ColdBoots {
			t.Errorf("-coldboot served %d runs warm, %d of %d cold boots pinned: %+v",
				warm, st.Fallbacks[FallbackColdBootPinned], st.ColdBoots, st)
		}
	case plane.NoElide:
		if st.Elided != 0 || st.Wedged != 0 || st.ElisionFallbacks[ElideFallbackPinned] != warm {
			t.Errorf("-noelide elided %d and wedged %d runs, charged %d of %d warm runs %s",
				st.Elided, st.Wedged, st.ElisionFallbacks[ElideFallbackPinned], warm, ElideFallbackPinned)
		}
	case st.ElisionFallbacks[ElideFallbackPinned] != 0:
		t.Errorf("%d runs charged %s without the pin", st.ElisionFallbacks[ElideFallbackPinned], ElideFallbackPinned)
	}
	if !plane.ColdBoot && st.ColdBoots != st.Fallbacks[FallbackBackgroundRates] {
		t.Errorf("the warm plane booted cold for a reason other than background rates: %+v", st.Fallbacks)
	}
}

// checkDefault checks what the row asks of a default-plane serving, and
// that it forks every run the way the row's first default serving did.
func (s *scenario) checkDefault(t *testing.T, got served) {
	t.Helper()
	st, c := got.stats, s.Checks
	if c.Elided && st.Elided == 0 {
		t.Errorf("no run elided its tail: %+v", st)
	}
	if c.Rejoined && st.Rejoined == 0 {
		t.Errorf("no run rejoined another: %+v", st)
	}
	for _, reason := range c.Fallbacks {
		if st.ElisionFallbacks[reason] == 0 {
			t.Errorf("no run charged %s: %+v", reason, st.ElisionFallbacks)
		}
	}
	if c.Certified {
		wedges := []string{}
		for i, rr := range got.runs {
			wedged := got.sv[i].Plane == PlaneWedged
			if wedged != hung(rr) {
				t.Errorf("run %d was served %s and ends %+v", i, got.sv[i], rr)
			}
			if wedged {
				wedges = append(wedges, fmt.Sprintf("run %d %s", i, got.sv[i]))
			}
		}
		if len(wedges) == 0 {
			t.Error("no run was certified wedged: the certificate goes unchecked")
		}
		if c.Wedges != nil && !reflect.DeepEqual(c.Wedges, wedges) {
			t.Errorf("wedged runs %q, the row expects %q", wedges, c.Wedges)
		}
		t.Logf("%d runs, %d certified wedged, each ending at the cycle limit", len(got.runs), len(wedges))
	}
	if c.Held {
		for class, l := range got.ladders {
			held := heldPrefix(t, class.config(s.Policy, s.Seed))
			if want := min(held, (len(l.rungs)-1)/captureStride+1); len(l.snaps) != want {
				t.Errorf("ladder walked %d rungs and holds %d snapshots, want %d", len(l.rungs), len(l.snaps), want)
			}
		}
	}

	if got.sv == nil {
		return
	}
	forks := make([]Serving, len(got.sv))
	for i, sv := range got.sv {
		forks[i] = sv
		if sv.Plane != PlaneCold {
			forks[i] = Serving{Rung: sv.Rung}
		}
	}
	s.splitMu.Lock()
	defer s.splitMu.Unlock()
	if s.split == nil {
		s.split = forks
	} else if !reflect.DeepEqual(s.split, forks) {
		t.Errorf("runs fork from other rungs than in the row's first default cell:\nfirst: %v\nhere:  %v", s.split, forks)
	}
}

// resume serves the row from a journal of its oracle's runs, torn
// mid-record or with a corrupt tail, and checks that the journal ends
// holding every run as the oracle ran it.
func (s *scenario) resume(t *testing.T, shape string, workers int) served {
	o := s.reference(t, nil)
	p := s.plan(t)
	hdr := JournalHeader{Policy: s.Policy, Model: s.Model, Seed: s.Seed, IPC: s.IPC}
	if s.Kind == kindSingle {
		hdr.Kind, hdr.SamplesPerSite, hdr.MaxRuns = TraceSingle, s.Plan.Samples, s.Plan.MaxRuns
		hdr.PlanFingerprint = PlanFingerprint(p.single)
	} else {
		hdr.Kind, hdr.Faults, hdr.Runs = TraceMulti, s.Plan.Faults, s.Plan.Runs
		hdr.PlanFingerprint = MultiPlanFingerprint(p.multi)
	}
	entries := make([]journalEntry, len(o.runs))
	for i, rr := range o.runs {
		entries[i] = journalEntry{Index: i}
		switch rr := rr.(type) {
		case RunResult:
			entries[i].Single = &rr
		case MultiRunResult:
			entries[i].Multi = &rr
		}
	}
	clean := journalImage(t, hdr, entries...)
	data := clean[:len(clean)*6/10]
	if shape == "corrupt" {
		data = append(append([]byte(nil), clean...), 0x55, 0xAA)
		copy(data[len(clean)-2:], []byte{0xFF, 0xFF})
	}
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, resumed, err := OpenJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if resumed == 0 || resumed >= len(o.runs) {
		t.Fatalf("resumed %d of %d runs: the journal should lose some but not all", resumed, len(o.runs))
	}
	got := s.serve(t, PlaneOptions{}, workers, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, resumed, err = OpenJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if resumed != len(o.runs) {
		t.Errorf("the resumed campaign left %d of %d runs journaled", resumed, len(o.runs))
	}
	for i, want := range o.runs {
		var rr any
		var ok bool
		if s.Kind == kindSingle {
			rr, ok = j.LookupRun(i)
		} else {
			rr, ok = j.LookupMulti(i)
		}
		if !ok || !reflect.DeepEqual(want, rr) {
			t.Errorf("journal entry %d (found %v) differs from the oracle's run:\noracle:  %+v\njournal: %+v", i, ok, want, rr)
		}
	}
	return got
}

// hung reports whether a run ended at the cycle limit.
func hung(rr any) bool {
	switch rr := rr.(type) {
	case RunResult:
		return rr.Reason == cycleLimitReason
	case MultiRunResult:
		return rr.Reason == cycleLimitReason
	}
	return false
}

// heldPrefix walks a fresh ladder of cfg to its end, rung by rung, and
// returns how many snapshots it holds. It fails t unless every stride
// rung before the first failed capture is held and that capture failed
// because the machine refuses one, not for lack of room.
func heldPrefix(t *testing.T, cfg core.Config) int {
	t.Helper()
	l := newLadder(cfg, false)
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	defer l.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	failed := -1
	for l.sys != nil {
		l.advance()
		r := len(l.rungs) - 1
		if l.sys == nil || failed >= 0 || r%captureStride != 0 {
			continue
		}
		if len(l.snaps) == r/captureStride+1 {
			continue
		}
		if _, err := boot.CaptureParked(l.sys, l.opts); err == nil {
			t.Fatalf("rung %d captures but the ladder does not hold it", r)
		}
		failed = r
	}
	strides := (len(l.rungs)-1)/captureStride + 1
	if failed >= 0 {
		strides = failed / captureStride
	}
	if len(l.snaps) != strides {
		t.Fatalf("walk of %d rungs holds %d snapshots, want %d (first failed capture at rung %d)", len(l.rungs), len(l.snaps), strides, failed)
	}
	return len(l.snaps)
}
