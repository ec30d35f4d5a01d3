// Package testsuite is the prototype test suite of the reproduction:
// a set of ~90 small user programs written to maximize code coverage
// in the five OS servers, mirroring the role of the homegrown MINIX 3
// test-program set the paper uses for its recovery-coverage and
// survivability experiments (§VI).
//
// Each program returns 0 on success and a small positive failure code
// otherwise. The suite runner executes every program as a spawned
// child process and tallies the outcome, so a server crash during one
// test surfaces as that test failing (or the system dying) rather than
// the whole suite aborting.
package testsuite

import (
	"slices"
	"sort"

	"repro/internal/usr"
)

// Report tallies a suite run. It is filled in by the runner program
// while the simulation executes and read by the harness afterwards.
type Report struct {
	Ran    int
	Passed int
	Failed int
	// FailedNames lists the failing tests in execution order.
	FailedNames []string
	// InstallOK records whether program installation succeeded.
	InstallOK bool
}

// Complete reports whether every test ran.
func (r *Report) Complete() bool { return r.Ran == len(names) }

// AllPassed reports whether every test ran and passed.
func (r *Report) AllPassed() bool { return r.Complete() && r.Failed == 0 }

// tests is the name -> program table, assembled explicitly from the
// per-server files (no init magic); names lists it in execution (sorted)
// order.
var tests, names = buildTests()

func buildTests() (map[string]usr.Program, []string) {
	m := make(map[string]usr.Program, 96)
	addPMTests(m)
	addVFSTests(m)
	addPipeTests(m)
	addVMTests(m)
	addDSTests(m)
	addCrossTests(m)
	addFeatureTests(m)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return m, names
}

// add inserts a test, panicking on duplicates (programming error).
func add(m map[string]usr.Program, name string, prog usr.Program) {
	if _, dup := m[name]; dup {
		panic("testsuite: duplicate test " + name)
	}
	m[name] = prog
}

// Names returns every test name in execution (sorted) order, in a slice
// of the caller's own.
func Names() []string { return slices.Clone(names) }

// Register installs every suite program (and its helper programs) into
// reg so they can be spawned.
func Register(reg *usr.Registry) {
	for name, prog := range tests {
		reg.Register(name, prog)
	}
	registerHelpers(reg)
}

// RunnerInit returns an init program that installs all binaries, then
// spawns every test in order, filling in report. Between the two phases
// it marks the warm-fork quiescence barrier: installation is identical
// across runs of one configuration, so campaign drivers capture the
// machine there and fork per-run copies instead of re-installing.
func RunnerInit(report *Report) usr.Program {
	return func(p *usr.Proc) int {
		if errno := usr.InstallPrograms(p); errno != 0 {
			return 1
		}
		report.InstallOK = true
		p.Barrier()
		return runTests(report, p)
	}
}

// RunnerResumeFrom returns the suffix of the suite starting at the
// quiescence barrier described by prefix: the suite state of a ladder
// rung captured after prefix.Ran tests. The report is pre-filled with a
// deep copy of the prefix tallies, so a machine forked from that rung
// finishes with a report identical to a full run. A zero-test prefix
// resumes from the post-install boot barrier: the test phase of
// RunnerInit alone, for a machine forked from a warm boot image.
func RunnerResumeFrom(report *Report, prefix Report) usr.Program {
	return func(p *usr.Proc) int {
		*report = prefix
		report.FailedNames = append([]string(nil), prefix.FailedNames...)
		report.InstallOK = true
		if prefix.Ran == 0 {
			return runTests(report, p)
		}
		return runTestsFrom(report, p, prefix.Ran)
	}
}

// runTests is the test phase: spawn every suite program in order and
// tally the outcome.
func runTests(report *Report, p *usr.Proc) int {
	p.Mkdir("/tmp")
	return runTestsFrom(report, p, 0)
}

// runTestsFrom runs the suite suffix starting at test index from. A
// Barrier separates consecutive tests — these are the rungs of the
// mid-suite snapshot ladder, no-ops on every machine not being walked
// by a pathfinder — so the first iteration of a resumed suffix emits
// the barrier its fork was captured at, exactly like a cold run passing
// through it.
func runTestsFrom(report *Report, p *usr.Proc, from int) int {
	for i, name := range names[from:] {
		if from+i > 0 {
			p.Barrier()
		}
		pid, errno := p.Spawn(name)
		if errno != 0 {
			report.Ran++
			report.Failed++
			report.FailedNames = append(report.FailedNames, name)
			continue
		}
		_, status, werr := p.Wait()
		report.Ran++
		if werr != 0 || status != 0 {
			report.Failed++
			report.FailedNames = append(report.FailedNames, name)
		} else {
			report.Passed++
		}
		_ = pid
	}
	return 0
}
