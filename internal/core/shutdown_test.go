package core_test

import (
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// The post-mortem report a controlled shutdown leaves is made when it is
// asked for, after the run, and reads exactly as the report formatted at
// the shutdown itself: checked on every run of a small seed-42 fail-stop
// plan that ends in one.
func TestShutdownDumpOnDemandMatchesEager(t *testing.T) {
	profile, err := faultinject.Profile(42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultinject.CampaignConfig{Policy: seep.PolicyEnhanced, Model: faultinject.FailStop, Seed: 42, MaxRuns: 48}
	shutdowns := 0
	for i, inj := range faultinject.PlanCampaign(cfg, profile) {
		reg := usr.NewRegistry()
		testsuite.Register(reg)
		var report testsuite.Report
		sys := boot.Boot(boot.Options{Config: core.Config{Policy: cfg.Policy, Seed: 42}, Registry: reg, Heartbeats: true},
			testsuite.RunnerInit(&report))
		seen := 0
		sys.Kernel().SetPointHook(func(_ kernel.Endpoint, name, site string) {
			if name == inj.Server && site == inj.Site {
				if seen++; seen == inj.Occurrence {
					panic("injected fail-stop fault at " + site)
				}
			}
		})
		var eager string
		sys.OS.WatchShutdowns(func(info kernel.CrashInfo) { eager = sys.OS.EagerDump(info) })
		res := sys.Run(faultinject.RunLimit)
		if got := sys.ShutdownDump(); got != eager {
			t.Errorf("run %d (%s %s:%d): the report reads\n%s\nat the shutdown it read\n%s", i, inj.Server, inj.Site, inj.Occurrence, got, eager)
		}
		if res.Outcome == kernel.OutcomeShutdown {
			if eager == "" {
				t.Errorf("run %d ended in a controlled shutdown that left no report", i)
			}
			shutdowns++
		}
		sys.Shutdown("checked")
	}
	if shutdowns == 0 {
		t.Fatal("no run of the plan ended in a controlled shutdown: the test checks nothing")
	}
	t.Logf("%d runs ended in a controlled shutdown", shutdowns)
}
