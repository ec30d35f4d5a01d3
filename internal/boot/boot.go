// Package boot assembles a complete OSIRIS machine: the microkernel,
// the substrate tasks (system task, disk driver), the five recoverable
// servers (RS, PM, VM, VFS, DS), and the init workload process. It is
// the composition root used by examples, tests, benchmarks and the
// fault-injection campaigns.
package boot

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/servers/driver"
	"repro/internal/servers/ds"
	"repro/internal/servers/pm"
	"repro/internal/servers/rs"
	"repro/internal/servers/systask"
	"repro/internal/servers/vfs"
	"repro/internal/servers/vm"
	"repro/internal/usr"
	"repro/internal/wire"
)

// heartbeatTargets are the components the Recovery Server probes.
var heartbeatTargets = []kernel.Endpoint{
	kernel.EpPM, kernel.EpVM, kernel.EpVFS, kernel.EpDS, kernel.EpDriver, proto.EpSys,
}

// Options parameterizes a boot.
type Options struct {
	core.Config
	// Registry holds the user programs available to exec/spawn. Nil
	// creates an empty registry.
	Registry *usr.Registry
	// Heartbeats enables RS's periodic heartbeat rounds. Off by default
	// so performance runs measure only the workload; survivability runs
	// enable it.
	Heartbeats bool
}

// System is a booted machine.
type System struct {
	*core.OS
	// Registry is the program registry backing exec.
	Registry *usr.Registry
	// Driver is the disk driver (its contents survive recoveries).
	Driver *driver.Driver
}

// TransientCoder returns the codec of the Forkable transient state of
// the component boot wires to ep: the Recovery Server's and VFS's fork
// states, and for every other endpoint wire.Nil — a component without
// transient state has none to persist. The on-disk image decodes a
// slot's transient through it, so the endpoint, not a name in the
// stream, picks the type; the name is only checked. The transient digest
// (core.OS.TransientDigest) encodes through the same coders.
func TransientCoder(ep kernel.Endpoint) func(*wire.Codec, *any) {
	switch ep {
	case kernel.EpRS:
		return rs.CodeForkState
	case kernel.EpVFS:
		return vfs.CodeForkState
	}
	return wire.Nil
}

// Boot builds the machine and installs initProg as the init process
// (pid 1). Run it with System.Run.
func Boot(opts Options, initProg usr.Program, initArgs ...string) *System {
	return BootIn(nil, opts, initProg, initArgs...)
}

// BootIn is Boot with the kernel built on arena a (kernel.NewIn); once
// the machine is finished, Kernel().Release gives the arena back.
func BootIn(a *kernel.Arena, opts Options, initProg usr.Program, initArgs ...string) *System {
	reg := opts.Registry
	if reg == nil {
		reg = usr.NewRegistry()
	}
	o := core.NewOSIn(a, opts.Config)

	drv := driver.New(vfs.DiskBlocks)
	o.AddTask(kernel.EpDriver, "driver", drv.Run, drv)
	o.AddTask(proto.EpSys, "sys", systask.Run, systask.Task)

	initEP := o.SpawnInit("init", reg.Body(initProg, initArgs))
	for _, c := range components(opts, initEP, reg) {
		o.AddComponent(c.ep, c.factory)
	}
	return &System{OS: o, Registry: reg, Driver: drv}
}

// component is one recoverable server: its endpoint and how to build it
// over a store.
type component struct {
	ep      kernel.Endpoint
	factory core.Factory
}

// components is the one table of the five recoverable servers, in the
// order they are added. Boot builds each over a fresh store and
// Snapshot.Fork over a fork-cloned one, so both build bit-identical
// instances.
func components(opts Options, initEP kernel.Endpoint, reg *usr.Registry) [5]component {
	heartbeats := opts.Heartbeats
	return [...]component{
		{kernel.EpRS, func(st *memlog.Store) core.Component {
			return &rsComponent{RS: rs.New(st, heartbeatTargets), heartbeats: heartbeats}
		}},
		{kernel.EpPM, func(st *memlog.Store) core.Component { return pm.New(st, initEP, reg.MakeBody) }},
		{kernel.EpVM, func(st *memlog.Store) core.Component { return vm.New(st, int64(initEP)) }},
		{kernel.EpVFS, func(st *memlog.Store) core.Component { return vfs.New(st) }},
		{kernel.EpDS, func(st *memlog.Store) core.Component { return ds.New(st) }},
	}
}

// rsComponent adapts rs.RS to optionally disable heartbeats.
type rsComponent struct {
	*rs.RS

	heartbeats bool
}

// Init schedules heartbeats only when enabled.
func (r *rsComponent) Init(ctx *kernel.Context) {
	if r.heartbeats {
		r.RS.Init(ctx)
	}
}
