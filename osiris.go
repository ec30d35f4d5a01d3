// Package osiris is the public API of the OSIRIS reproduction: an
// executable model of "OSIRIS: Efficient and Consistent Recovery of
// Compartmentalized Operating Systems" (Bhat et al., DSN 2016).
//
// The package boots a deterministic, simulated multiserver operating
// system — microkernel, Process Manager, Virtual Memory Manager, VFS,
// Data Store and Recovery Server — equipped with the paper's recovery
// machinery: SEEP-classified communication, per-request recovery
// windows backed by an undo log, and a three-phase recovery engine
// (restart, rollback, reconciliation with error virtualization).
//
// Quick start:
//
//	sys := osiris.Boot(osiris.Options{Policy: osiris.PolicyEnhanced},
//	    func(p *osiris.Proc) int {
//	        p.DsPut("greeting", "hello")
//	        v, _ := p.DsGet("greeting")
//	        _ = v
//	        return 0
//	    })
//	result := sys.Run(osiris.DefaultRunLimit)
//
// Options carries what the examples vary: the policy, the seed, the
// program registry, heartbeats, the crash-storm budget and the restart
// backoff base. The rest of the recovery sequencer's timing — the
// backoff cap, the recovery watchdog, the heartbeat period and the
// number of silent rounds that make a hang — is fixed (DESIGN.md §4).
//
// The subpackages remain importable inside this module for advanced
// use; this package re-exports the surface most applications need.
package osiris

import (
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/testsuite"
	"repro/internal/usr"
)

// Re-exported core types. These aliases are the supported public API.
type (
	// Proc is a user process's handle on the system: the syscall
	// library (fork, exec, open, pipes, the Data Store, ...).
	Proc = usr.Proc
	// Program is a user program entry point.
	Program = usr.Program
	// Registry holds the programs available to exec and spawn.
	Registry = usr.Registry
	// System is a booted machine.
	System = boot.System
	// Result summarizes a completed run.
	Result = kernel.Result
	// Errno is a system error code.
	Errno = kernel.Errno
	// Policy selects the recovery strategy.
	Policy = seep.Policy
	// Cycles is virtual time.
	Cycles = sim.Cycles
	// ComponentStats carries per-server recovery measurements.
	ComponentStats = core.ComponentStats
	// SuiteReport tallies a prototype-test-suite run.
	SuiteReport = testsuite.Report
)

// Recovery policies (paper §IV-B and §VI).
const (
	// PolicyStateless restarts crashed components from scratch
	// (microreboot baseline).
	PolicyStateless = seep.PolicyStateless
	// PolicyNaive restarts crashed components with their state as-is
	// (best-effort baseline).
	PolicyNaive = seep.PolicyNaive
	// PolicyPessimistic closes recovery windows on any outbound message.
	PolicyPessimistic = seep.PolicyPessimistic
	// PolicyEnhanced uses SEEP side-effect classes (the default).
	PolicyEnhanced = seep.PolicyEnhanced
	// PolicyExtended adds requester-local windows and the
	// kill-requester reconciliation (the paper's §VII extension).
	PolicyExtended = seep.PolicyExtended
)

// Common error codes.
const (
	// OK is success.
	OK = kernel.OK
	// ECRASH: the serving component crashed and recovery aborted the
	// request (error virtualization).
	ECRASH = kernel.ECRASH
	// ENOENT: no such file, key or program.
	ENOENT = kernel.ENOENT
	// ECHILD: no waitable child.
	ECHILD = kernel.ECHILD
)

// Run outcomes.
const (
	// OutcomeCompleted: the workload finished.
	OutcomeCompleted = kernel.OutcomeCompleted
	// OutcomeShutdown: recovery performed a controlled shutdown.
	OutcomeShutdown = kernel.OutcomeShutdown
	// OutcomeCrashed: the system failed in an uncontrolled way.
	OutcomeCrashed = kernel.OutcomeCrashed
)

// DefaultRunLimit is a generous virtual-cycle budget for workloads.
const DefaultRunLimit Cycles = 4_000_000_000

// Options parameterizes Boot.
type Options struct {
	// Policy is the recovery policy; zero selects PolicyEnhanced.
	Policy Policy
	// Seed drives all randomness (default 1).
	Seed uint64
	// Registry supplies the programs available to exec; nil creates an
	// empty registry.
	Registry *Registry
	// Heartbeats enables the Recovery Server's periodic heartbeats: a
	// component silent for a fixed number of rounds is declared hung
	// and recovered like a crashed one.
	Heartbeats bool
	// MaxRecoveries bounds per-component recoveries before the engine
	// declares a crash storm (0 = default 25). Raise it for workloads
	// that intentionally crash components many times.
	MaxRecoveries int
	// RestartBackoffBase is the cool-down, in virtual cycles, before
	// restarting a component that crashed twice in a row, doubling per
	// further crash up to a fixed cap (0 = default 50,000; negative
	// disables backoff).
	RestartBackoffBase int64
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry { return usr.NewRegistry() }

// Boot assembles a full machine — substrate tasks, the five recoverable
// servers, and init running the given program — and returns it ready to
// Run.
func Boot(opts Options, init Program, args ...string) *System {
	policy := opts.Policy
	if policy == 0 {
		policy = PolicyEnhanced
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return boot.Boot(boot.Options{
		Config: core.Config{
			Policy:             policy,
			Seed:               seed,
			MaxRecoveries:      opts.MaxRecoveries,
			RestartBackoffBase: opts.RestartBackoffBase,
		},
		Registry:   opts.Registry,
		Heartbeats: opts.Heartbeats,
	}, init, args...)
}

// RegisterTestSuite installs the ~90-program prototype test suite into
// reg and returns an init program that runs it, filling in report.
func RegisterTestSuite(reg *Registry, report *SuiteReport) Program {
	testsuite.Register(reg)
	return testsuite.RunnerInit(report)
}

// InstallPrograms materializes every registered program under /bin so
// exec and spawn can find them; call it early in init.
func InstallPrograms(p *Proc) Errno { return usr.InstallPrograms(p) }

// Shell runs command lines by spawning programs; it returns the number
// of failed commands.
func Shell(p *Proc, commands []string) int { return usr.Shell(p, commands) }
