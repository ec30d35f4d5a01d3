// Package pm implements the Process Manager: process creation (fork,
// spawn, exec), termination (exit, kill), waiting, sleeping and pid
// bookkeeping. PM coordinates VM (address spaces), VFS (descriptor
// tables) and the system task (privileged process manipulation) — the
// cross-cutting interactions that make core-service recovery hard
// (paper §I: "a system call like exec involves the file system, memory
// manager, cache manager, process manager, etc.").
package pm

import (
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire"
)

// InitPid is the pid of the initial workload process.
const InitPid int64 = 1

// SEEP call sites of the Process Manager. The exec binary lookup is the
// notable read-only passage: under the enhanced policy it keeps PM's
// recovery window open, under the pessimistic policy it closes it.
var (
	seepVMFork   = seep.Passage{Name: "pm->vm.fork", Class: seep.ClassMutating}
	seepVMNew    = seep.Passage{Name: "pm->vm.newproc", Class: seep.ClassMutating}
	seepVMExit   = seep.Passage{Name: "pm->vm.exit", Class: seep.ClassMutating}
	seepVFSFork  = seep.Passage{Name: "pm->vfs.forkfds", Class: seep.ClassMutating}
	seepVFSExit  = seep.Passage{Name: "pm->vfs.exitfds", Class: seep.ClassMutating}
	seepSysSpawn = seep.Passage{Name: "pm->sys.spawn", Class: seep.ClassMutating}
	seepSysKill  = seep.Passage{Name: "pm->sys.terminate", Class: seep.ClassMutating}
	// Replacing a process image only changes state keyed to the
	// requester itself: under PolicyExtended this passage keeps the
	// recovery window open with a requester-local taint (§VII).
	seepSysReplace = seep.Passage{Name: "pm->sys.replace", Class: seep.ClassRequesterLocal}
	seepExecStat   = seep.Passage{Name: "pm->vfs.stat", Class: seep.ClassReadOnly}
	seepDSCleanup  = seep.Passage{Name: "pm->ds.cleanup", Class: seep.ClassMutating}
)

// procState is the lifecycle state of a managed process.
type procState int32

const (
	stateRunning procState = iota + 1
	stateZombie
)

// procEntry is PM's per-process record.
type procEntry struct {
	Pid     int64
	Parent  int64
	EP      int64
	State   procState
	Status  int64
	Waiting bool // parent blocked in wait()
}

// Code is the record's field list (wire.Coder).
func (e *procEntry) Code(c *wire.Codec) {
	wire.Int(c, &e.Pid)
	wire.Int(c, &e.Parent)
	wire.Int(c, &e.EP)
	wire.Int(c, &e.State)
	wire.Int(c, &e.Status)
	c.Bool(&e.Waiting)
}

// MakeBody resolves a program name to a runnable process body; it
// returns false if no such program exists. The usr package supplies the
// implementation, giving PM an exec without depending on user-space.
type MakeBody func(name string, args []string) (kernel.Body, bool)

// PM is the Process Manager server.
type PM struct {
	makeBody MakeBody
	initEP   kernel.Endpoint

	procs    *memlog.Map[int64, procEntry]
	epToPid  *memlog.Map[int64, int64]
	nextPid  *memlog.Cell[int64]
	sleepers *memlog.Map[int64, int64] // ep -> wake deadline (cycles)
	forks    *memlog.Cell[int64]
}

// New binds a PM over store. initEP is the endpoint of the initial
// workload process, registered as pid 1 on a fresh store.
func New(store *memlog.Store, initEP kernel.Endpoint, makeBody MakeBody) *PM {
	p := &PM{
		makeBody: makeBody,
		initEP:   initEP,
		procs:    memlog.NewMap[int64, procEntry](store, "pm.procs"),
		epToPid:  memlog.NewMap[int64, int64](store, "pm.ep_to_pid"),
		nextPid:  memlog.NewCell(store, "pm.next_pid", InitPid+1),
		sleepers: memlog.NewMap[int64, int64](store, "pm.sleepers"),
		forks:    memlog.NewCell(store, "pm.forks", int64(0)),
	}
	// Register the init process only at first boot: a stateless restart
	// has genuinely lost the process table and must not conjure it back.
	if p.procs.Len() == 0 && store.Generation() == 0 {
		p.procs.Set(InitPid, procEntry{Pid: InitPid, EP: int64(initEP), State: stateRunning})
		p.epToPid.Set(int64(initEP), InitPid)
	}
	return p
}

// Name implements the component interface.
func (p *PM) Name() string { return "pm" }

// handleTicks is what Handle charges every request.
const handleTicks = 40

// Leaf names the requests Handle serves without suspending PM, getpid
// and a heartbeat ping, and bounds their ticks (core.Leaf).
func (p *PM) Leaf(m *kernel.Message) (sim.Cycles, bool) {
	return handleTicks, m.Type == proto.PMGetPID || m.Type == proto.RSPing
}

// Handle processes one request.
func (p *PM) Handle(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.handle.entry")
	ctx.Tick(handleTicks)
	switch m.Type {
	case proto.PMFork:
		p.fork(ctx, m)
	case proto.PMSpawn:
		p.spawn(ctx, m)
	case proto.PMExec:
		p.exec(ctx, m)
	case proto.PMExit:
		p.exit(ctx, m)
	case proto.PMWait:
		p.wait(ctx, m)
	case proto.PMGetPID:
		p.getpid(ctx, m)
	case proto.PMKill:
		p.kill(ctx, m)
	case proto.PMSleep:
		p.sleep(ctx, m)
	case proto.PMUserCrashed:
		p.userCrashed(ctx, m)
	case kernel.MsgAlarm:
		p.alarm(ctx)
	case proto.RSPing:
		ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})
	default:
		if m.NeedsReply {
			ctx.ReplyErr(m.From, kernel.ENOSYS)
		}
	}
}

// mustPid resolves a caller endpoint to its pid. An unknown endpoint on
// a state-changing call means PM's own tables are inconsistent with the
// world — a defensive assertion fail-stops the component (§II-E).
func (p *PM) mustPid(ctx *kernel.Context, ep kernel.Endpoint) int64 {
	pid, ok := p.epToPid.Get(int64(ep))
	if !ok {
		ctx.Crash("pm: no pid for endpoint %d: process table inconsistent", ep)
	}
	return pid
}

func (p *PM) fork(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.fork.entry")
	parentPid := p.mustPid(ctx, m.From)
	body, ok := m.Aux.(kernel.Body)
	if !ok {
		ctx.ReplyErr(m.From, kernel.EINVAL)
		return
	}
	pid := p.nextPid.Get()
	p.nextPid.Set(pid + 1)
	p.forks.Set(p.forks.Get() + 1)

	// Privileged process creation, then address-space duplication, then
	// descriptor-table inheritance — all state-modifying passages.
	r := ctx.Call(seepSysSpawn, proto.EpSys, kernel.Message{Type: proto.SysSpawn, Str: "fork", Aux: body})
	if r.Errno != kernel.OK {
		ctx.ReplyErr(m.From, r.Errno)
		return
	}
	childEP := r.A
	ctx.Point("pm.fork.spawned")

	if r := ctx.Call(seepVMFork, kernel.EpVM, kernel.Message{Type: proto.VMFork, A: int64(m.From), B: childEP}); r.Errno != kernel.OK {
		ctx.Call(seepSysKill, proto.EpSys, kernel.Message{Type: proto.SysTerminate, A: childEP})
		ctx.ReplyErr(m.From, r.Errno)
		return
	}
	if r := ctx.Call(seepVFSFork, kernel.EpVFS, kernel.Message{Type: proto.VFSForkFDs, A: int64(m.From), B: childEP}); r.Errno != kernel.OK {
		ctx.Call(seepVMExit, kernel.EpVM, kernel.Message{Type: proto.VMExit, A: childEP})
		ctx.Call(seepSysKill, proto.EpSys, kernel.Message{Type: proto.SysTerminate, A: childEP})
		ctx.ReplyErr(m.From, r.Errno)
		return
	}

	p.procs.Set(pid, procEntry{Pid: pid, Parent: parentPid, EP: childEP, State: stateRunning})
	p.epToPid.Set(childEP, pid)
	ctx.Point("pm.fork.done")
	ctx.Reply(m.From, kernel.Message{A: pid})
}

func (p *PM) spawn(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.spawn.entry")
	parentPid := p.mustPid(ctx, m.From)
	args, _ := m.Aux.([]string)

	// Binary lookup is a read-only interaction with the VFS.
	st := ctx.Call(seepExecStat, kernel.EpVFS, kernel.Message{Type: proto.VFSStat, Str: "/bin/" + m.Str})
	if st.Errno != kernel.OK {
		ctx.ReplyErr(m.From, kernel.ENOENT)
		return
	}
	body, ok := p.makeBody(m.Str, args)
	if !ok {
		ctx.ReplyErr(m.From, kernel.ENOENT)
		return
	}
	ctx.Point("pm.spawn.resolved")

	pid := p.nextPid.Get()
	p.nextPid.Set(pid + 1)
	p.forks.Set(p.forks.Get() + 1)

	r := ctx.Call(seepSysSpawn, proto.EpSys, kernel.Message{Type: proto.SysSpawn, Str: m.Str, Aux: body})
	if r.Errno != kernel.OK {
		ctx.ReplyErr(m.From, r.Errno)
		return
	}
	childEP := r.A
	if r := ctx.Call(seepVMNew, kernel.EpVM, kernel.Message{Type: proto.VMNewProc, A: childEP, B: 0}); r.Errno != kernel.OK {
		ctx.Call(seepSysKill, proto.EpSys, kernel.Message{Type: proto.SysTerminate, A: childEP})
		ctx.ReplyErr(m.From, r.Errno)
		return
	}
	if r := ctx.Call(seepVFSFork, kernel.EpVFS, kernel.Message{Type: proto.VFSForkFDs, A: int64(m.From), B: childEP}); r.Errno != kernel.OK {
		ctx.Call(seepVMExit, kernel.EpVM, kernel.Message{Type: proto.VMExit, A: childEP})
		ctx.Call(seepSysKill, proto.EpSys, kernel.Message{Type: proto.SysTerminate, A: childEP})
		ctx.ReplyErr(m.From, r.Errno)
		return
	}

	p.procs.Set(pid, procEntry{Pid: pid, Parent: parentPid, EP: childEP, State: stateRunning})
	p.epToPid.Set(childEP, pid)
	ctx.Point("pm.spawn.done")
	ctx.Reply(m.From, kernel.Message{A: pid})
}

func (p *PM) exec(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.exec.entry")
	p.mustPid(ctx, m.From)
	args, _ := m.Aux.([]string)

	st := ctx.Call(seepExecStat, kernel.EpVFS, kernel.Message{Type: proto.VFSStat, Str: "/bin/" + m.Str})
	if st.Errno != kernel.OK {
		ctx.ReplyErr(m.From, kernel.ENOENT)
		return
	}
	body, ok := p.makeBody(m.Str, args)
	if !ok {
		ctx.ReplyErr(m.From, kernel.ENOENT)
		return
	}
	ctx.Point("pm.exec.resolved")

	r := ctx.Call(seepSysReplace, proto.EpSys, kernel.Message{Type: proto.SysReplace, A: int64(m.From), Str: m.Str, Aux: body})
	if r.Errno != kernel.OK {
		ctx.ReplyErr(m.From, r.Errno)
		return
	}
	ctx.Point("pm.exec.done")
	// Success: the caller was replaced; exec does not return.
}

// reap delivers a zombie's status to its waiting parent and frees the
// table entry.
func (p *PM) reap(ctx *kernel.Context, parent procEntry, child procEntry) {
	ctx.Reply(kernel.Endpoint(parent.EP), kernel.Message{A: child.Pid, B: child.Status})
	parent.Waiting = false
	p.procs.Set(parent.Pid, parent)
	p.procs.Delete(child.Pid)
}

// terminate tears a running process down: address space, descriptors,
// kernel slot; then zombifies or reaps the entry.
func (p *PM) terminate(ctx *kernel.Context, entry procEntry, status int64, alreadyDead bool) {
	ctx.Call(seepVFSExit, kernel.EpVFS, kernel.Message{Type: proto.VFSExitFDs, A: entry.EP})
	ctx.Point("pm.terminate.fds")
	ctx.Call(seepDSCleanup, kernel.EpDS, kernel.Message{Type: proto.DSCleanup, A: entry.EP})
	ctx.Call(seepVMExit, kernel.EpVM, kernel.Message{Type: proto.VMExit, A: entry.EP})
	ctx.Point("pm.terminate.vm")
	if !alreadyDead {
		ctx.Call(seepSysKill, proto.EpSys, kernel.Message{Type: proto.SysTerminate, A: entry.EP})
	}
	ctx.Point("pm.terminate.slot")
	ctx.Tick(25)
	p.epToPid.Delete(entry.EP)

	entry.State = stateZombie
	entry.Status = status
	p.procs.Set(entry.Pid, entry)

	parent, ok := p.procs.Get(entry.Parent)
	switch {
	case ok && parent.Waiting:
		p.reap(ctx, parent, entry)
	case !ok:
		// Orphan: auto-reap.
		p.procs.Delete(entry.Pid)
	}
}

func (p *PM) exit(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.exit.entry")
	pid := p.mustPid(ctx, m.From)
	entry, ok := p.procs.Get(pid)
	if !ok {
		ctx.Crash("pm: exit from pid %d with no table entry", pid)
	}
	p.terminate(ctx, entry, m.A, false)
	ctx.Point("pm.exit.done")
	// The exiting process is gone; no reply.
}

func (p *PM) userCrashed(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.usercrash.entry")
	pid, ok := p.epToPid.Get(m.A)
	if !ok {
		return // already cleaned up, or unknown to a restarted PM
	}
	entry, ok := p.procs.Get(pid)
	if !ok {
		return
	}
	p.terminate(ctx, entry, -1, true)
}

func (p *PM) wait(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.wait.entry")
	pid := p.mustPid(ctx, m.From)
	self, ok := p.procs.Get(pid)
	if !ok {
		ctx.Crash("pm: wait from pid %d with no table entry", pid)
	}

	var zombie *procEntry
	hasChild := false
	p.procs.ForEach(func(_ int64, e procEntry) bool {
		if e.Parent != pid {
			return true
		}
		hasChild = true
		if e.State == stateZombie {
			ze := e
			zombie = &ze
			return false
		}
		return true
	})

	switch {
	case zombie != nil:
		ctx.Reply(m.From, kernel.Message{A: zombie.Pid, B: zombie.Status})
		p.procs.Delete(zombie.Pid)
	case hasChild:
		self.Waiting = true
		p.procs.Set(pid, self)
		// Reply postponed until a child exits.
	default:
		ctx.ReplyErr(m.From, kernel.ECHILD)
	}
}

func (p *PM) getpid(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.getpid")
	pid, ok := p.epToPid.Get(int64(m.From))
	if !ok {
		ctx.ReplyErr(m.From, kernel.ESRCH)
		return
	}
	entry, _ := p.procs.Get(pid)
	ctx.Reply(m.From, kernel.Message{A: pid, B: entry.Parent})
}

func (p *PM) kill(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.kill.entry")
	p.mustPid(ctx, m.From)
	target, ok := p.procs.Get(m.A)
	if !ok || target.State != stateRunning {
		ctx.ReplyErr(m.From, kernel.ESRCH)
		return
	}
	if kernel.Endpoint(target.EP) == m.From {
		// Suicide by signal: treated as exit(-9); no reply.
		p.terminate(ctx, target, -9, false)
		return
	}
	p.terminate(ctx, target, -9, false)
	ctx.Point("pm.kill.done")
	ctx.ReplyErr(m.From, kernel.OK)
}

func (p *PM) sleep(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("pm.sleep.entry")
	if m.A <= 0 {
		ctx.ReplyErr(m.From, kernel.OK)
		return
	}
	wake := int64(ctx.Now()) + m.A
	p.sleepers.Set(int64(m.From), wake)
	ctx.SetAlarm(sim.Cycles(m.A))
	// Reply postponed until the alarm fires.
}

func (p *PM) alarm(ctx *kernel.Context) {
	ctx.Point("pm.alarm")
	now := int64(ctx.Now())
	var due []int64
	p.sleepers.ForEach(func(ep, wake int64) bool {
		if wake <= now {
			due = append(due, ep)
		}
		return true
	})
	for _, ep := range due {
		p.sleepers.Delete(ep)
		ctx.ReplyErr(kernel.Endpoint(ep), kernel.OK)
	}
}

// Stats reports bookkeeping totals (diagnostics and tests).
func (p *PM) Stats() (procs int, forks int64) {
	return p.procs.Len(), p.forks.Get()
}

// AuditUserEndpoints returns the endpoints of every running (non-zombie)
// process in PM's table, in table order. The consistency auditor
// cross-checks them against VM's address spaces and kernel liveness.
func (p *PM) AuditUserEndpoints() []int64 {
	var out []int64
	p.procs.ForEach(func(_ int64, e procEntry) bool {
		if e.State == stateRunning {
			out = append(out, e.EP)
		}
		return true
	})
	return out
}
