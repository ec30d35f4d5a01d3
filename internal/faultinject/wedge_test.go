package faultinject

import (
	"reflect"
	"testing"

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

// The wedge certificate ends a provably hung warm run after a few
// heartbeat rounds instead of simulating it to the cycle limit. The
// differential runner's wedge rows check that every certified run is the
// hang its cold boot ends as; these tests drive each certificate gate
// through its refusing path against the cold oracle.

// stratifiedPlan mirrors osirisbench's campaign_single plan: per
// candidate site, min(samples, reach) fail-stop injections spread evenly
// over the site's post-boot occurrences with a seeded phase.
func stratifiedPlan(profile []SiteProfile, samples int, seed uint64) []Injection {
	rng := sim.NewRNG(seed ^ 0x05121545)
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
		phase := rng.Float64()
		for i := 0; i < n; i++ {
			plan = append(plan, Injection{
				Server:     sp.Server,
				Site:       sp.Site,
				Occurrence: sp.Boot + 1 + int((float64(i)+phase)*float64(reach)/float64(n)),
				Type:       FaultCrash,
			})
		}
	}
	return plan
}

// servedPass runs plan over a fresh warm plane with the given worker
// count and returns per-run results and serving decisions plus the
// plane statistics.
func servedPass(cfg CampaignConfig, plan []Injection, workers int) ([]RunResult, []Serving, PlaneStats) {
	runner := NewArmedRunner(cfg, plan)
	defer runner.Close()
	decisions := make([]Serving, len(plan))
	results := parallel.Map(workers, len(plan), func(i int) RunResult {
		rr, decision := runner.serve(cfg.Seed+uint64(i)*7919, plan[i])
		decisions[i] = decision
		return rr
	})
	return results, decisions, runner.Stats()
}

// wedgeProbe boots prog as init on two identical machines — one driven
// by runElidable behind a bare elider (prog has no barriers, so tail
// elision never acts and only the wedge certificate can), one by plain
// Run, the cold oracle — and returns both results plus the warm serving
// decision.
func wedgeProbe(cfg core.Config, prog usr.Program) (warm, cold kernel.Result, decision Serving) {
	opts := boot.Options{Config: cfg, Heartbeats: true}
	cold = boot.Boot(opts, prog).Run(RunLimit)

	sys := boot.Boot(opts, prog)
	el := &elider{l: &ladder{}, sv: Serving{Plane: PlaneForked}, ready: func() bool { return true }}
	warm = runElidable(sys, new(testsuite.Report), audit.Attach(sys.OS), el)
	return warm, cold, el.sv
}

func parkForever(p *usr.Proc) int {
	for {
		p.Context().Receive()
	}
}

// assertRefused checks a probe the certificate must not have ended: the
// warm run equals the cold one to the cycle and is not served wedged.
func assertRefused(t *testing.T, warm, cold kernel.Result, decision Serving) {
	t.Helper()
	if warm != cold {
		t.Errorf("warm run differs from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if decision.Plane == PlaneWedged {
		t.Errorf("run certified (%s); the gate under test must refuse it", decision)
	}
}

// The probe harness itself: init blocked forever in Receive is the
// certifiable wedge, ended within the window's few rounds.
func TestWedgeCertifiesBlockedInit(t *testing.T) {
	warm, cold, decision := wedgeProbe(core.Config{Policy: seep.PolicyEnhanced, Seed: 1}, parkForever)
	if cold.Outcome != kernel.OutcomeHang || cold.Cycles <= RunLimit {
		t.Fatalf("cold run: %+v, want a hang at the limit", cold)
	}
	if warm.Outcome != cold.Outcome || warm.Reason != cold.Reason {
		t.Errorf("certified run ended %v (%s), cold run %v (%s)", warm.Outcome, warm.Reason, cold.Outcome, cold.Reason)
	}
	if want := (Serving{Plane: PlaneWedged, At: uint64(warm.Cycles)}); decision != want {
		t.Errorf("decision %q, want %q", decision, want)
	}
	if limit := sim.Cycles(wedgeRounds+2) * rs.HeartbeatPeriod; warm.Cycles > limit {
		t.Errorf("certified at cycle %d, want within %d", warm.Cycles, limit)
	}
}

// (b) A user process sleeping on a long alarm is not wedged: it wakes
// and the run completes. A raw kernel alarm is refused by the
// user-alarm clause of WedgeQuiescent; a sleep through PM is a
// server-owned one-shot timer that only the alarm phase of the stamp
// tells from the heartbeat.
func TestWedgeRefusesSleepers(t *testing.T) {
	const nap = 40 * rs.HeartbeatPeriod
	progs := map[string]usr.Program{
		"raw kernel alarm": func(p *usr.Proc) int {
			p.Context().SetAlarm(nap)
			p.Context().Receive()
			return 0
		},
		"sleep through PM": func(p *usr.Proc) int {
			p.Sleep(nap)
			return 0
		},
	}
	for name, prog := range progs {
		warm, cold, decision := wedgeProbe(core.Config{Policy: seep.PolicyEnhanced, Seed: 1}, prog)
		if cold.Outcome != kernel.OutcomeCompleted {
			t.Fatalf("%s: cold run ended %v (%s), want completed", name, cold.Outcome, cold.Reason)
		}
		t.Run(name, func(t *testing.T) { assertRefused(t, warm, cold, decision) })
	}
}

// (b) A component gone silent while parked in Receive: RS counts its
// missed rounds towards HangMisses — configured far beyond the window —
// and then fail-stops it, which ends this run in a controlled shutdown.
// Every idle point until then differs only in RS's outstanding count,
// which lives outside its store: the transient digest must see it.
func TestWedgeRefusesSilentTarget(t *testing.T) {
	mute := func(p *usr.Proc) int {
		k := p.Context().Kernel()
		if _, err := k.ReplaceProcess(kernel.EpDS, "ds", func(ctx *kernel.Context) {
			for {
				ctx.Receive() // swallows every ping
			}
		}, kernel.ServerConfig{}); err != nil {
			panic(err)
		}
		return parkForever(p)
	}
	cfg := core.Config{Policy: seep.PolicyEnhanced, Seed: 1, HangMisses: 4 * wedgeRounds}
	warm, cold, decision := wedgeProbe(cfg, mute)
	if cold.Outcome != kernel.OutcomeShutdown {
		t.Fatalf("cold run ended %v (%s), want the shutdown RS's hang detector causes", cold.Outcome, cold.Reason)
	}
	assertRefused(t, warm, cold, decision)
}

// (b) Background transport rates roll the fault stream for every ping
// and pong: the IPC RNG cursor moves every round, so the future is not
// the present repeated. The run idles to the real limit, uncertified.
func TestWedgeRefusesBackgroundRates(t *testing.T) {
	cfg := core.Config{
		Policy:    seep.PolicyEnhanced,
		Seed:      1,
		IPCFaults: kernel.IPCFaultConfig{DelayBP: 2},
	}
	warm, cold, decision := wedgeProbe(cfg, parkForever)
	if cold.Outcome != kernel.OutcomeHang {
		t.Fatalf("cold run ended %v (%s), want a hang at the limit", cold.Outcome, cold.Reason)
	}
	assertRefused(t, warm, cold, decision)
	if !executedInFull(decision, ElideFallbackWedgeUnproven) {
		t.Errorf("decision %q is not a full run charged %s", decision, ElideFallbackWedgeUnproven)
	}
}

// (b) State that moves every round, with nothing else moving: under the
// IPC reliability layer every ping takes the next transport sequence
// number, which the state fingerprint covers. The idle points never
// recur and the run idles to the real limit.
func TestWedgeRefusesMovingState(t *testing.T) {
	cfg := core.Config{Policy: seep.PolicyEnhanced, Seed: 1, IPCTimeoutCycles: core.DefaultIPCTimeoutCycles}
	warm, cold, decision := wedgeProbe(cfg, parkForever)
	if cold.Outcome != kernel.OutcomeHang {
		t.Fatalf("cold run ended %v (%s), want a hang at the limit", cold.Outcome, cold.Reason)
	}
	assertRefused(t, warm, cold, decision)
}

// firstWedged returns a single-fault injection the certificate ends —
// a crash that kills the event a suite test waits for.
func firstWedged(t *testing.T, profile []SiteProfile) Injection {
	t.Helper()
	plan := stratifiedPlan(profile, 3, 42)
	cfg := CampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	_, decisions, _ := servedPass(cfg, plan, 0)
	for i, d := range decisions {
		if d.Plane == PlaneWedged {
			return plan[i]
		}
	}
	t.Fatal("no run of the plan is certified")
	return Injection{}
}

// (b) An armed fault that has not fired yet is the future the idle
// rounds do not show: a crash armed at rs.heartbeat thousands of rounds
// away fires in the idle regime and the run ends in a shutdown, not at
// the limit. The readiness gate must hold the certificate back.
func TestWedgeRefusesArmedHeartbeatFault(t *testing.T) {
	profile, err := Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, sp := range profile {
		if sp.Server == "rs" && sp.Site == "rs.heartbeat" {
			rounds = sp.Total
		}
	}
	if rounds == 0 {
		t.Fatal("profile has no rs.heartbeat site")
	}
	plan := []MultiInjection{
		{Injection: firstWedged(t, profile)},
		{Injection: Injection{Server: "rs", Site: "rs.heartbeat", Occurrence: rounds + 3000, Type: FaultCrash}},
	}
	cfg := MultiCampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := newMultiRunner(cfg, [][]MultiInjection{plan})
	defer runner.close()
	warm, decision := runner.run(7, multiSpec(plan, IPCOptions{}))
	cold := RunMultiWith(seep.PolicyEnhanced, 7, plan, IPCOptions{})
	if cold.Triggered != 2 || cold.Reason == cycleLimitReason {
		t.Fatalf("cold run: %d faults fired, ended %v (%s); want both fired and no hang", cold.Triggered, cold.Outcome, cold.Reason)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm run (%s) differs from cold:\ncold: %+v\nwarm: %+v", decision, cold, warm)
	}

	// Without the late fault the same run is certified: the gate, not the
	// plan's shape, is what held the certificate back above.
	alone := plan[:1]
	runner = newMultiRunner(cfg, [][]MultiInjection{alone})
	defer runner.close()
	warm, decision = runner.run(7, multiSpec(alone, IPCOptions{}))
	if decision.Plane != PlaneWedged {
		t.Errorf("single-crash run served %q, want wedged", decision)
	}
	if cold = RunMultiWith(seep.PolicyEnhanced, 7, alone, IPCOptions{}); !reflect.DeepEqual(cold, warm) {
		t.Errorf("certified run differs from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// (b) A quarantined component is permanent fault residue the
// fingerprint does not cover: a crash whose recovery is crashed until
// the sequencer detaches DS wedges the suite, and the run idles to the
// real limit charged wedge-unproven — bit-identical to its cold boot.
func TestWedgeRefusesQuarantine(t *testing.T) {
	plan := recoveryStormPlan(t, "ds.put")
	cfg := MultiCampaignConfig{Policy: seep.PolicyEnhanced, Model: FailStop, Seed: 42}
	runner := newMultiRunner(cfg, [][]MultiInjection{plan})
	defer runner.close()
	warm, decision := runner.run(7, multiSpec(plan, IPCOptions{}))
	cold := RunMultiWith(seep.PolicyEnhanced, 7, plan, IPCOptions{})
	if cold.Quarantines != 1 || cold.Reason != cycleLimitReason {
		t.Fatalf("cold run: %d quarantines, ended %v (%s); want one quarantine and a hang", cold.Quarantines, cold.Outcome, cold.Reason)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("quarantined run diverged:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if !executedInFull(decision, ElideFallbackWedgeUnproven) {
		t.Errorf("decision %q is not a full run charged %s", decision, ElideFallbackWedgeUnproven)
	}
	if stats := runner.Stats(); stats.Wedged != 0 || stats.ElisionFallbacks[ElideFallbackWedgeUnproven] != 1 {
		t.Errorf("stats %+v, want one %s run and none wedged", stats, ElideFallbackWedgeUnproven)
	}
}
