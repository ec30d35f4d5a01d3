package boot

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/testsuite"
)

// armedRun is one plan entry of TestForkOnAUsedArenaMatchesAFreshOne: a
// run seed and, unless site is empty, a fail-stop fault at the
// occurrence-th execution of site after the fork.
type armedRun struct {
	seed       uint64
	site       string
	occurrence int
}

// runTrace is what a forked run shows: its state fingerprint at every
// quiescence barrier, how it ended and what the suite reported.
type runTrace struct {
	fps        []uint64
	res        kernel.Result
	report     testsuite.Report
	recoveries int
}

// traceFork forks snap (captured with the suite report prefix) on arena a,
// arms e's fault, drives the fork barrier to barrier to its end, tears it
// down and releases it.
func traceFork(t *testing.T, snap *Snapshot, prefix testsuite.Report, a *kernel.Arena, e armedRun) runTrace {
	t.Helper()
	var tr runTrace
	sys, err := snap.Fork(ForkParams{Seed: e.seed, Arena: a}, testsuite.RunnerResumeFrom(&tr.report, prefix))
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	k := sys.Kernel()
	if e.site != "" {
		seen := 0
		k.SetPointHook(func(_ kernel.Endpoint, _, site string) {
			if seen++; seen == e.occurrence {
				panic("injected fail-stop fault at " + site)
			}
		}, e.site)
	}
	for k.RunToBarrier(testLimit) {
		fp, err := sys.StateFingerprint()
		if err != nil {
			t.Fatalf("StateFingerprint: %v", err)
		}
		tr.fps = append(tr.fps, fp)
	}
	tr.res, tr.recoveries = k.StepResult(), sys.Recoveries
	sys.Shutdown("traced")
	k.Release()
	return tr
}

// A machine built on an arena that served other machines before it —
// its coroutines, tables and placeholder slab written by them — runs
// exactly like one built on a fresh arena: the same fingerprint at every
// barrier, the same end, the same suite report. The forks start sixty
// tests into the suite, so each installs dead placeholders; the plan
// holds a fault-free run, recovered ones, one that hangs and one that
// shuts down, and the used arena serves the plan twice over.
func TestForkOnAUsedArenaMatchesAFreshOne(t *testing.T) {
	opts := suiteOpts(1)
	var prefix testsuite.Report
	src := Boot(opts, testsuite.RunnerInit(&prefix))
	defer src.Shutdown("captured")
	for i := 0; i < 60; i++ {
		if !src.Kernel().RunToBarrier(testLimit) {
			t.Fatalf("suite ended before barrier %d", i)
		}
	}
	snap, err := CaptureParked(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := []armedRun{
		{seed: 1},
		{seed: 2, site: "pm.fork.entry", occurrence: 3},
		{seed: 3, site: "pm.fork.done", occurrence: 2},
		{seed: 4, site: "vfs.loop.top", occurrence: 40},
		{seed: 5, site: "pm.exit.entry", occurrence: 7},
	}
	used := new(kernel.Arena)
	defer used.Close()
	recovered, shutdown := 0, 0
	for round := 0; round < 2; round++ {
		for _, e := range plan {
			name := fmt.Sprintf("round %d, %+v", round, e)
			fresh := new(kernel.Arena)
			want := traceFork(t, snap, prefix, fresh, e)
			fresh.Close()
			got := traceFork(t, snap, prefix, used, e)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: on a used arena\n%+v\nwant, as on a fresh one,\n%+v", name, got, want)
			}
			if len(want.fps) == 0 {
				t.Errorf("%s: the fork reached no barrier", name)
			}
			if round == 0 {
				switch {
				case want.res.Outcome == kernel.OutcomeShutdown:
					shutdown++
				case want.recoveries > 0 && want.res.Outcome == kernel.OutcomeCompleted:
					recovered++
				}
			}
		}
	}
	if recovered == 0 || shutdown == 0 {
		t.Errorf("the plan made %d recovered and %d shut-down runs, want some of each", recovered, shutdown)
	}
}
