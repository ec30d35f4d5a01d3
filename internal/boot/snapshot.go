// Warm boot snapshots: boot one machine to the workload's quiescence
// barrier, capture it, and fork independent runnable machines from the
// image in O(state size) — no re-execution of the boot or install
// phases. Because the kernel RNG is never drawn during a fault-free
// boot and the IPC plane draws nothing while no faults are armed, the
// boot trace is seed-independent: one capture serves every run seed
// bit-identically to a cold boot with that seed.
package boot

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/servers/driver"
	"repro/internal/servers/systask"
	"repro/internal/sim"
	"repro/internal/usr"
)

// Snapshot is a warm boot image: one booted machine frozen at the
// quiescence barrier, plus the pieces outside the kernel image needed to
// materialize clones (driver disk contents, the program registry). A
// Snapshot is immutable; Fork may be called from concurrent goroutines.
// The fields are exported for the on-disk format (internal/image).
type Snapshot struct {
	Image *core.OSImage
	// Disk is the driver's frozen device: contents and rolling
	// fingerprint state, shared page by page with the captured machine
	// and with every fork.
	Disk *driver.Image
	// Registry is the program registry the captured machine booted with.
	// It holds function values and cannot be serialized: a file records
	// the program names, and its reader supplies an equivalent registry
	// built from the same code.
	Registry *usr.Registry
	Opts     Options
}

// CaptureParked captures a machine the caller already parked at a
// barrier via RunToBarrier, WITHOUT tearing it down: the machine stays
// parked and can be driven to the next barrier with another RunToBarrier
// call. This is how the snapshot ladder's pathfinder captures a rung at
// every program boundary of one walk. The returned Snapshot is
// independent of the live machine.
func CaptureParked(sys *System, opts Options) (*Snapshot, error) {
	img, err := sys.OS.CaptureImage()
	if err != nil {
		return nil, err
	}
	return &Snapshot{Image: img, Disk: sys.Driver.Share(), Registry: sys.Registry, Opts: opts}, nil
}

// SizeBytes estimates the snapshot's retained memory: disk block copies
// plus the machine image estimate. It is reported (osirisbench's
// boot.snapshot_bytes), not used as a budget: nothing caps what a
// campaign's snapshots hold.
func (s *Snapshot) SizeBytes() int64 {
	return s.Image.SizeBytes() + s.Disk.SizeBytes()
}

// fingerprintSkip excludes heartbeat-phase traffic from server inboxes
// when hashing machine state: RS ping probes and kernel alarm ticks are
// schedule artifacts — the heartbeat re-arms relative to its last round,
// so after a recovery their arrival phase is skewed by the recovery cost
// while the behavior they drive is unchanged. User inboxes are hashed in
// full (server is false there).
func fingerprintSkip(m kernel.Message, server bool) bool {
	return server && (m.Type == proto.RSPing || m.Type == kernel.MsgAlarm)
}

// StateFingerprint hashes the whole machine's semantic state for the
// elision plane: kernel process table and queues, component stores (RS
// excluded — statistics), and the disk. Statistics, the absolute clock,
// counters and heartbeat phase are excluded; see OS.StateFingerprint
// and fingerprintSkip for the full exclusion argument.
func (sys *System) StateFingerprint() (uint64, error) {
	h, err := sys.OS.StateFingerprint(fingerprintSkip)
	if err != nil {
		return 0, err
	}
	// Fold the disk hash in with a final avalanche so the combined value
	// does not cancel against the OS-level hash.
	return sim.Mix64(h ^ (sys.Driver.Fingerprint() + 0x9E3779B97F4A7C15)), nil
}

// ForkParams is the per-run identity stamped onto a forked machine. The
// machine RNG and the IPC fault stream are re-seeded from these after
// the fork, so forked runs are bit-identical to cold boots with the same
// seeds.
type ForkParams struct {
	// Seed replaces Config.Seed for this run.
	Seed uint64
	// IPCFaultSeed replaces Config.IPCFaultSeed for this run.
	IPCFaultSeed uint64
	// Arena, when set, is the host scaffolding the machine is built on
	// (kernel.NewIn): Kernel().Release gives it back once the machine is
	// finished, and a failed Fork gives it back itself.
	Arena *kernel.Arena
}

// Fork materializes an independent runnable machine from the snapshot:
// every process is rebuilt through the ordinary boot sequence (pure data
// setup — no clock, counter or RNG effects), then the captured state is
// stamped on top. resumeProg is the post-barrier half of the workload
// (e.g. testsuite.RunnerResumeFrom); its Report-style sinks must be fresh
// per fork. Run the returned system exactly like a booted one.
func (s *Snapshot) Fork(params ForkParams, resumeProg usr.Program, initArgs ...string) (*System, error) {
	cfg := s.Opts.Config
	cfg.Seed = params.Seed
	cfg.IPCFaultSeed = params.IPCFaultSeed
	o := core.NewOSIn(params.Arena, cfg)
	fail := func(err error) (*System, error) {
		o.Shutdown("fork failed: " + err.Error())
		o.Kernel().Release()
		return nil, err
	}

	drv := driver.NewFromImage(s.Disk)
	o.AddTask(kernel.EpDriver, "driver", drv.Run, drv)
	o.AddTask(proto.EpSys, "sys", systask.Run, systask.Task)

	initEP := o.SpawnInit("init", s.Registry.ResumeBody(resumeProg, initArgs))

	for _, c := range components(s.Opts, initEP, s.Registry) {
		if err := o.AddForkedComponent(c.ep, c.factory, s.Image); err != nil {
			return fail(err)
		}
	}
	if err := o.Kernel().ApplyImage(s.Image.Machine); err != nil {
		return fail(err)
	}
	return &System{OS: o, Registry: s.Registry, Driver: drv}, nil
}
