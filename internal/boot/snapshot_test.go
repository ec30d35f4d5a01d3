package boot

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// suiteOpts is the full-suite boot configuration the campaign drivers
// use: every program registered, heartbeats on.
func suiteOpts(seed uint64) Options {
	reg := usr.NewRegistry()
	testsuite.Register(reg)
	return Options{
		Config:     core.Config{Policy: seep.PolicyEnhanced, Seed: seed},
		Registry:   reg,
		Heartbeats: true,
	}
}

// coldSuiteRun boots a machine from scratch and runs the whole suite.
func coldSuiteRun(t *testing.T, seed uint64) (kernel.Result, testsuite.Report) {
	t.Helper()
	var report testsuite.Report
	sys := Boot(suiteOpts(seed), testsuite.RunnerInit(&report))
	res := sys.Run(testLimit)
	return res, report
}

// captureBoot boots the suite under seed, parks it at the boot barrier
// and captures it.
func captureBoot(t *testing.T, seed uint64) *Snapshot {
	t.Helper()
	opts := suiteOpts(seed)
	sys := Boot(opts, testsuite.RunnerInit(new(testsuite.Report)))
	defer sys.Shutdown("captured")
	if !sys.Kernel().RunToBarrier(testLimit) {
		t.Fatal("suite never reached the boot barrier")
	}
	snap, err := CaptureParked(sys, opts)
	if err != nil {
		t.Fatalf("CaptureParked: %v", err)
	}
	return snap
}

// forkSuiteRun forks a machine from snap and runs the post-barrier
// suite phase.
func forkSuiteRun(t *testing.T, snap *Snapshot, seed uint64) (kernel.Result, testsuite.Report) {
	t.Helper()
	var report testsuite.Report
	sys, err := snap.Fork(ForkParams{Seed: seed}, testsuite.RunnerResumeFrom(&report, testsuite.Report{}))
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	res := sys.Run(testLimit)
	return res, report
}

// TestWarmForkMatchesColdBoot: a machine forked from a warm image and
// run through the full suite is bit-identical — outcome, final cycle
// count, and per-test results — to a cold boot with the same seed.
func TestWarmForkMatchesColdBoot(t *testing.T) {
	const seed = 7
	coldRes, coldRep := coldSuiteRun(t, seed)
	mustComplete(t, coldRes)
	if !coldRep.AllPassed() {
		t.Fatalf("cold suite: %d ran, %d failed (%v)", coldRep.Ran, coldRep.Failed, coldRep.FailedNames)
	}

	snap := captureBoot(t, seed)
	warmRes, warmRep := forkSuiteRun(t, snap, seed)
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Errorf("kernel result differs:\ncold %+v\nwarm %+v", coldRes, warmRes)
	}
	if !reflect.DeepEqual(coldRep, warmRep) {
		t.Errorf("suite report differs:\ncold %+v\nwarm %+v", coldRep, warmRep)
	}
}

// TestWarmForkSeedIndependence: the boot trace is seed-independent, so
// one image captured under one seed serves a different run seed
// bit-identically to a cold boot with that seed.
func TestWarmForkSeedIndependence(t *testing.T) {
	snap := captureBoot(t, 1)
	const otherSeed = 99
	coldRes, coldRep := coldSuiteRun(t, otherSeed)
	warmRes, warmRep := forkSuiteRun(t, snap, otherSeed)
	if !reflect.DeepEqual(coldRes, warmRes) || !reflect.DeepEqual(coldRep, warmRep) {
		t.Errorf("fork under seed %d differs from cold boot:\ncold %+v %+v\nwarm %+v %+v",
			otherSeed, coldRes, coldRep, warmRes, warmRep)
	}
}

// TestWarmForkSnapshotImmutable: running one fork to completion — the
// suite writes the disk, mutates every server's state, and exercises
// shared block contents — must not disturb the snapshot: a later fork
// yields identical results.
func TestWarmForkSnapshotImmutable(t *testing.T) {
	const seed = 3
	snap := captureBoot(t, seed)
	firstRes, firstRep := forkSuiteRun(t, snap, seed)
	mustComplete(t, firstRes)
	secondRes, secondRep := forkSuiteRun(t, snap, seed)
	if !reflect.DeepEqual(firstRes, secondRes) || !reflect.DeepEqual(firstRep, secondRep) {
		t.Errorf("second fork differs from first:\nfirst  %+v %+v\nsecond %+v %+v",
			firstRes, firstRep, secondRes, secondRep)
	}
}

// A capture forks every store, and a fork never carries a log: a parked
// machine one of whose stores holds an undo record is refused by the
// capture, as the on-disk image refuses such a store, and a ForkClone of
// the store panics. Once the log is gone the machine captures again.
func TestCaptureRefusesUndoRecordsInFlight(t *testing.T) {
	opts := suiteOpts(5)
	sys := Boot(opts, testsuite.RunnerInit(new(testsuite.Report)))
	defer sys.Shutdown("test done")
	if !sys.Kernel().RunToBarrier(testLimit) {
		t.Fatal("suite never reached the boot barrier")
	}
	if _, err := CaptureParked(sys, opts); err != nil {
		t.Fatalf("quiescent machine refused: %v", err)
	}
	st := sys.ComponentStore(kernel.EpDS)
	probe := memlog.NewCell(st, "test.probe", int64(0))
	st.SetLogging(true)
	probe.Set(1)
	if _, err := CaptureParked(sys, opts); err == nil {
		t.Error("machine with an undo record in flight was captured")
	}
	if sys.ElideQuiescent() {
		t.Error("machine with an undo record in flight is quiescent enough to elide")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ForkClone copied a store with an undo record in flight")
			}
		}()
		st.ForkClone()
	}()
	st.SetLogging(false)
	st.DiscardLog()
	if _, err := CaptureParked(sys, opts); err != nil {
		t.Errorf("machine refused after its log was discarded: %v", err)
	}
}

// A simulated context switch is a coroutine switch on the calling
// thread, so how many processors the host scheduler has to play with
// cannot reach the simulation: the same machine run under GOMAXPROCS 1
// and 2 ends with the same result, cycle count, suite report and state.
func TestHostProcessorsDoNotReachTheSimulation(t *testing.T) {
	type end struct {
		res kernel.Result
		rep testsuite.Report
		fp  uint64
	}
	runAt := func(procs int) end {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var e end
		sys := Boot(suiteOpts(11), testsuite.RunnerInit(&e.rep))
		e.res = sys.Run(testLimit)
		fp, err := sys.StateFingerprint()
		if err != nil {
			t.Fatalf("StateFingerprint at GOMAXPROCS %d: %v", procs, err)
		}
		e.fp = fp
		return e
	}
	one, two := runAt(1), runAt(2)
	mustComplete(t, one.res)
	if !reflect.DeepEqual(one, two) {
		t.Errorf("GOMAXPROCS 1 and 2 differ:\n1: %+v\n2: %+v", one, two)
	}
}
