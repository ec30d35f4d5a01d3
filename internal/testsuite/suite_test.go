package testsuite

import (
	"testing"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/usr"
)

const runLimit sim.Cycles = 2_000_000_000

// runSuite boots a machine under the given policy and runs the full
// prototype test suite.
func runSuite(t *testing.T, policy seep.Policy) (*boot.System, *Report, kernel.Result) {
	t.Helper()
	reg := usr.NewRegistry()
	Register(reg)
	var report Report
	sys := boot.Boot(boot.Options{
		Config:   core.Config{Policy: policy, Seed: 42},
		Registry: reg,
	}, RunnerInit(&report))
	res := sys.Run(runLimit)
	return sys, &report, res
}

func TestSuiteCount(t *testing.T) {
	if n := len(Names()); n < 80 {
		t.Fatalf("suite has %d programs, want >= 80 (paper uses 89)", n)
	}
}

func TestSuiteAllPassEnhanced(t *testing.T) {
	_, report, res := runSuite(t, seep.PolicyEnhanced)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if !report.InstallOK {
		t.Fatal("program installation failed")
	}
	if !report.AllPassed() {
		t.Fatalf("suite: ran %d passed %d failed %d; failures: %v",
			report.Ran, report.Passed, report.Failed, report.FailedNames)
	}
}

func TestSuiteAllPassPessimistic(t *testing.T) {
	_, report, res := runSuite(t, seep.PolicyPessimistic)
	if res.Outcome != kernel.OutcomeCompleted || !report.AllPassed() {
		t.Fatalf("outcome=%v failed=%v", res.Outcome, report.FailedNames)
	}
}

func TestSuiteAllPassBaselinePolicies(t *testing.T) {
	for _, policy := range []seep.Policy{seep.PolicyStateless, seep.PolicyNaive} {
		_, report, res := runSuite(t, policy)
		if res.Outcome != kernel.OutcomeCompleted || !report.AllPassed() {
			t.Fatalf("%v: outcome=%v failed=%v", policy, res.Outcome, report.FailedNames)
		}
	}
}

func TestSuiteProducesCoverage(t *testing.T) {
	sys, _, res := runSuite(t, seep.PolicyEnhanced)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	for _, cs := range sys.Stats() {
		total := cs.Coverage.BlocksIn + cs.Coverage.BlocksOut
		if total == 0 {
			t.Errorf("component %s executed no instrumented blocks", cs.Name)
			continue
		}
		cov := cs.Coverage.BlockCoverage()
		if cov <= 0 || cov > 1 {
			t.Errorf("component %s coverage = %v out of range", cs.Name, cov)
		}
		t.Logf("%s: coverage %.1f%% (blocks %d)", cs.Name, 100*cov, total)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	_, r1, res1 := runSuite(t, seep.PolicyEnhanced)
	_, r2, res2 := runSuite(t, seep.PolicyEnhanced)
	if res1.Cycles != res2.Cycles || r1.Passed != r2.Passed {
		t.Fatalf("non-deterministic suite: (%d,%d) vs (%d,%d)",
			res1.Cycles, r1.Passed, res2.Cycles, r2.Passed)
	}
}

// The fault-free suite serves a good share of its requests as leaf steps,
// on a yielding process's coroutine without a switch (kernel.Stepper): of
// the steps served and the switches made, the steps were 33.2 % under the
// enhanced policy at seed 42 when the floor was set (19.6 % when only a
// plane-free SendRec served them). A change that stops a server
// registering its step, or a precondition that stops holding, takes the
// share under the floor.
func TestSuiteServesLeafCalls(t *testing.T) {
	const floor = 0.30
	sys, _, res := runSuite(t, seep.PolicyEnhanced)
	if res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	served, switches := sys.Kernel().LeafCalls()
	if share := float64(served) / float64(served+switches); share < floor {
		t.Errorf("%d steps served beside %d switches (%.1f %%), want at least %.0f %%", served, switches, 100*share, 100*floor)
	}
}
