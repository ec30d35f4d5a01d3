// Command osiris boots the simulated compartmentalized OS and runs the
// prototype test suite (default) or an inline shell script, reporting
// the outcome and per-component recovery statistics.
//
// Usage:
//
//	osiris [-policy enhanced|extended|pessimistic|stateless|naive] [-seed N]
//	       [-heartbeats] [-stats] [-inject server.site[:occurrence]]
//	       [command args...]
//
// It exits 2 on a malformed -inject value (an empty site, or an
// occurrence that is not a positive integer) and 1 when the run cannot
// be set up.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

const runLimit sim.Cycles = 8_000_000_000

func main() { os.Exit(runCommand()) }

// runCommand is the command; it returns the exit status: 2 for a
// malformed flag, 1 for a failed run.
func runCommand() int {
	var (
		policyName = flag.String("policy", "enhanced", "recovery policy: enhanced, extended, pessimistic, stateless or naive")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		heartbeats = flag.Bool("heartbeats", true, "enable Recovery Server heartbeats")
		stats      = flag.Bool("stats", false, "print per-component recovery statistics")
		inject     = flag.String("inject", "", "inject a fail-stop fault: site[:occurrence], e.g. pm.fork.entry:2")
		trace      = flag.Bool("trace", false, "print kernel IPC/crash events to stderr")
	)
	flag.Parse()
	site, occurrence, err := parseInject(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, "osiris:", err)
		return 2
	}
	if err := run(*policyName, *seed, *heartbeats, *stats, *trace, site, occurrence, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "osiris:", err)
		return 1
	}
	return 0
}

// parseInject reads the -inject value site[:occurrence]: a site that is
// not empty and, when given, an occurrence that is a positive integer
// (default 1). The empty value injects nothing.
func parseInject(v string) (site string, occurrence int, err error) {
	if v == "" {
		return "", 0, nil
	}
	site, occurrence = v, 1
	if i := strings.LastIndex(v, ":"); i >= 0 {
		site = v[:i]
		if occurrence, err = strconv.Atoi(v[i+1:]); err != nil || occurrence < 1 {
			return "", 0, fmt.Errorf("-inject %s: the occurrence must be a positive integer", v)
		}
	}
	if site == "" {
		return "", 0, fmt.Errorf("-inject %s: the site is empty", v)
	}
	return site, occurrence, nil
}

func run(policyName string, seed uint64, heartbeats, stats, trace bool, site string, occurrence int, args []string) error {
	policy, err := seep.ParsePolicy(policyName)
	if err != nil {
		return err
	}

	reg := usr.NewRegistry()
	testsuite.Register(reg)

	var report testsuite.Report
	var initProg usr.Program
	if len(args) == 0 {
		initProg = testsuite.RunnerInit(&report)
	} else {
		command := strings.Join(args, " ")
		initProg = func(p *usr.Proc) int {
			if errno := usr.InstallPrograms(p); errno != kernel.OK {
				return 1
			}
			p.Mkdir("/tmp")
			return usr.Shell(p, []string{command})
		}
	}

	sys := boot.Boot(boot.Options{
		Config:     core.Config{Policy: policy, Seed: seed},
		Registry:   reg,
		Heartbeats: heartbeats,
	}, initProg)

	if trace {
		sys.Kernel().SetTracer(func(format string, fmtArgs ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", fmtArgs...)
		})
	}

	if site != "" {
		remaining := occurrence
		sys.Kernel().SetPointHook(func(_ kernel.Endpoint, _, s string) {
			if s != site {
				return
			}
			remaining--
			if remaining == 0 {
				panic("cli: injected fail-stop fault at " + site)
			}
		})
	}

	res := sys.Run(runLimit)

	fmt.Printf("outcome: %v", res.Outcome)
	if res.Reason != "" {
		fmt.Printf(" (%s)", res.Reason)
	}
	fmt.Printf("\nvirtual time: %d cycles\nrecoveries: %d\n", res.Cycles, sys.Recoveries)
	if dump := sys.ShutdownDump(); res.Outcome == kernel.OutcomeShutdown && dump != "" {
		fmt.Println("\npost-mortem dump:")
		fmt.Print(dump)
	}
	if len(args) == 0 {
		fmt.Printf("suite: %d ran, %d passed, %d failed\n", report.Ran, report.Passed, report.Failed)
		if report.Failed > 0 {
			fmt.Printf("failed tests: %s\n", strings.Join(report.FailedNames, " "))
		}
	}
	if stats {
		fmt.Println("\nper-component statistics:")
		fmt.Printf("%-8s %12s %12s %12s %12s %11s\n",
			"server", "coverage", "base-bytes", "clone-bytes", "undo-max", "recoveries")
		for _, cs := range sys.Stats() {
			fmt.Printf("%-8s %11.1f%% %12d %12d %12d %11d\n",
				cs.Name, 100*cs.Coverage.BlockCoverage(),
				cs.BaseBytes, cs.CloneBytes, cs.MaxUndoLogBytes, cs.Recoveries)
		}
	}
	return nil
}
