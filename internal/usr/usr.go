// Package usr is the user-space side of the simulated OS: the system
// call library ("libc"), the program registry that backs exec, and a
// tiny shell used by workloads. User programs are Go functions running
// as simulated processes; every syscall is one synchronous message
// round trip to the responsible server, exactly as in the
// multiserver-OS prototype.
package usr

import (
	"sort"
	"strings"

	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Program is the entry point of a user program; the return value is the
// process exit status.
type Program func(p *Proc) int

// Registry maps program names to entry points — the "binaries" that
// exec can load.
type Registry struct {
	m map[string]Program
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]Program)}
}

// Register installs prog under name, replacing any previous entry.
func (r *Registry) Register(name string, prog Program) {
	r.m[name] = prog
}

// Names lists registered programs in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MakeBody satisfies pm.MakeBody: it resolves name into a runnable
// process body.
func (r *Registry) MakeBody(name string, args []string) (kernel.Body, bool) {
	prog, ok := r.m[name]
	if !ok {
		return nil, false
	}
	return r.Body(prog, args), true
}

// Body wraps a program into a kernel process body.
func (r *Registry) Body(prog Program, args []string) kernel.Body {
	return func(ctx *kernel.Context) {
		p := &Proc{ctx: ctx, reg: r, Args: args}
		// Synchronize with PM before user code runs: guarantees the
		// creating fork/spawn transaction has fully committed.
		p.GetPID()
		status := prog(p)
		p.Exit(status)
	}
}

// ResumeBody wraps a program like Body but without the PM
// synchronization round trip. It is the body of the init process on a
// warm-forked machine: the captured predecessor already performed the
// GetPID handshake (its result is discarded in Body anyway), so the
// resumed program continues exactly where the captured one parked.
func (r *Registry) ResumeBody(prog Program, args []string) kernel.Body {
	return func(ctx *kernel.Context) {
		p := &Proc{ctx: ctx, reg: r, Args: args}
		status := prog(p)
		p.Exit(status)
	}
}

// Proc is a user process's handle on the system.
type Proc struct {
	ctx *kernel.Context
	reg *Registry
	// Args are the program arguments (argv[1:], argv[0] is implicit).
	Args []string
}

// Context exposes the raw kernel context (tests and harnesses only).
func (p *Proc) Context() *kernel.Context { return p.ctx }

// Compute burns n cycles of pure user-mode computation.
func (p *Proc) Compute(n sim.Cycles) { p.ctx.Tick(n) }

// Barrier marks the warm-fork quiescence point: the boundary between a
// workload's deterministic setup phase and its run phase. On an ordinary
// machine it is a complete no-op (no cycles, no yield); on a machine
// driven by kernel.RunToBarrier it parks the process for capture.
func (p *Proc) Barrier() { p.ctx.Barrier() }

// --- Process management (PM) ---

// GetPID returns the caller's pid and parent pid.
func (p *Proc) GetPID() (pid, ppid int64, errno kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMGetPID})
	return r.A, r.B, r.Errno
}

// Fork creates a child process running child; it returns the child pid.
func (p *Proc) Fork(child Program) (int64, kernel.Errno) {
	body := p.reg.Body(child, p.Args)
	r := p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMFork, Aux: body})
	return r.A, r.Errno
}

// Spawn forks and execs the named program in one call (posix_spawn).
func (p *Proc) Spawn(name string, args ...string) (int64, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMSpawn, Str: name, Aux: args})
	return r.A, r.Errno
}

// Exec replaces the calling process image with the named program. On
// success it never returns.
func (p *Proc) Exec(name string, args ...string) kernel.Errno {
	r := p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMExec, Str: name, Aux: args})
	return r.Errno
}

// Wait blocks until a child exits; it returns the child pid and status.
func (p *Proc) Wait() (pid, status int64, errno kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMWait})
	return r.A, r.B, r.Errno
}

// Exit terminates the calling process. It never returns while the
// system is healthy. If PM crashed while processing the exit and
// recovery aborted it with ECRASH, the exit is retried — otherwise PM
// would still list the process as running after it is gone. If PM is
// unreachable it falls through and the process ends anyway.
func (p *Proc) Exit(status int) {
	for attempt := 0; attempt < 64; attempt++ {
		r := p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMExit, A: int64(status)})
		if r.Errno != kernel.ECRASH {
			return
		}
	}
}

// Kill terminates the process with the given pid.
func (p *Proc) Kill(pid int64) kernel.Errno {
	return p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMKill, A: pid}).Errno
}

// Sleep suspends the caller for n cycles of virtual time.
func (p *Proc) Sleep(n sim.Cycles) kernel.Errno {
	return p.ctx.SendRec(kernel.EpPM, kernel.Message{Type: proto.PMSleep, A: int64(n)}).Errno
}

// --- Memory (VM) ---

// Brk grows (or shrinks) the caller's data segment by delta pages and
// returns the new segment size in pages.
func (p *Proc) Brk(delta int64) (int64, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMBrk, A: int64(p.ctx.Endpoint()), B: delta})
	return r.A, r.Errno
}

// MemInfo reports the caller's address-space size and system-wide page
// usage.
func (p *Proc) MemInfo() (pages, usedTotal int64, errno kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVM, kernel.Message{Type: proto.VMQuery, A: int64(p.ctx.Endpoint())})
	return r.A, r.B, r.Errno
}

// --- Files (VFS) ---

// Open opens path with the given proto.O* flags and returns a
// descriptor.
func (p *Proc) Open(path string, flags int64) (int64, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSOpen, Str: path, A: flags})
	return r.A, r.Errno
}

// Create creates (or truncates) path and opens it for writing.
func (p *Proc) Create(path string) (int64, kernel.Errno) {
	return p.Open(path, proto.OCreate|proto.OTrunc)
}

// Close releases a descriptor.
func (p *Proc) Close(fd int64) kernel.Errno {
	return p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSClose, A: fd}).Errno
}

// Read reads up to n bytes from fd at its current offset. The result is
// READ-ONLY: it may be the VFS's own bytes — a disk block, a pipe's
// contents — lent with the reply (kernel.Message). Copy it to change it;
// appending to it is safe.
func (p *Proc) Read(fd int64, n int) ([]byte, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSRead, A: fd, B: int64(n)})
	return r.Bytes, r.Errno
}

// Write writes data to fd at its current offset.
func (p *Proc) Write(fd int64, data []byte) (int, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSWrite, A: fd, Bytes: data})
	return int(r.A), r.Errno
}

// LSeek sets fd's offset (absolute).
func (p *Proc) LSeek(fd, off int64) kernel.Errno {
	return p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSSeek, A: fd, B: off}).Errno
}

// Unlink removes path.
func (p *Proc) Unlink(path string) kernel.Errno {
	return p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSUnlink, Str: path}).Errno
}

// Chdir sets the caller's working directory; subsequent relative paths
// resolve against it.
func (p *Proc) Chdir(path string) kernel.Errno {
	return p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSChdir, Str: path}).Errno
}

// Getcwd reports the caller's working directory.
func (p *Proc) Getcwd() (string, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSGetcwd})
	return r.Str, r.Errno
}

// Rename moves oldPath to newPath.
func (p *Proc) Rename(oldPath, newPath string) kernel.Errno {
	return p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSRename, Str: oldPath, Str2: newPath}).Errno
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string) kernel.Errno {
	return p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSMkdir, Str: path}).Errno
}

// Stat returns the size and type of path.
func (p *Proc) Stat(path string) (size int64, isDir bool, errno kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSStat, Str: path})
	return r.A, r.B == 2, r.Errno
}

// ReadDir lists the names in a directory.
func (p *Proc) ReadDir(path string) ([]string, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSReadDir, Str: path})
	names, _ := r.Aux.([]string)
	return names, r.Errno
}

// Pipe creates a pipe and returns (read fd, write fd).
func (p *Proc) Pipe() (rfd, wfd int64, errno kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSPipe})
	return r.A, r.B, r.Errno
}

// Sync flushes filesystem state.
func (p *Proc) Sync() kernel.Errno {
	return p.ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSSync}).Errno
}

// --- Key-value store (DS) ---

// DsPut stores key -> value in the Data Store.
func (p *Proc) DsPut(key, value string) kernel.Errno {
	return p.ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSPut, Str: key, Str2: value}).Errno
}

// DsGet reads key from the Data Store.
func (p *Proc) DsGet(key string) (string, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSGet, Str: key})
	return r.Str, r.Errno
}

// DsDelete removes key from the Data Store.
func (p *Proc) DsDelete(key string) kernel.Errno {
	return p.ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSDelete, Str: key}).Errno
}

// DsKeys reports the number of keys in the Data Store.
func (p *Proc) DsKeys() (int64, kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSKeys})
	return r.A, r.Errno
}

// DsSubscribe registers for change events on keys with the given
// prefix; events arrive asynchronously and are read with DsNextEvent.
func (p *Proc) DsSubscribe(prefix string) kernel.Errno {
	return p.ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSSubscribe, Str: prefix}).Errno
}

// DsUnsubscribe removes the caller's subscription.
func (p *Proc) DsUnsubscribe() kernel.Errno {
	return p.ctx.SendRec(kernel.EpDS, kernel.Message{Type: proto.DSUnsubscribe}).Errno
}

// DsNextEvent blocks until the next subscription event and returns the
// changed key. Non-event messages in the inbox are skipped.
func (p *Proc) DsNextEvent() string {
	for {
		m := p.ctx.Receive()
		if m.Type == proto.DSEvent {
			return m.Str
		}
	}
}

// --- Recovery server ---

// RSStatus reports the number of recoveries the Recovery Server has
// accounted.
func (p *Proc) RSStatus() (recoveries int64, errno kernel.Errno) {
	r := p.ctx.SendRec(kernel.EpRS, kernel.Message{Type: proto.RSStatus})
	return r.A, r.Errno
}

// --- Shell ---

// Shell runs each command line by spawning the named program with the
// remaining fields as arguments and waiting for it. It returns the
// number of failed commands (spawn errors or nonzero exits).
func Shell(p *Proc, commands []string) int {
	failures := 0
	for _, line := range commands {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		pid, errno := p.Spawn(fields[0], fields[1:]...)
		if errno != kernel.OK {
			failures++
			continue
		}
		_, status, errno := p.Wait()
		if errno != kernel.OK || status != 0 {
			failures++
		}
		_ = pid
	}
	return failures
}

// InstallPrograms materializes every registered program as a /bin entry
// so that exec/spawn binary lookups succeed. Typically called by init.
func InstallPrograms(p *Proc) kernel.Errno {
	if errno := p.Mkdir("/bin"); errno != kernel.OK && errno != kernel.EEXIST {
		return errno
	}
	for _, name := range p.reg.Names() {
		fd, errno := p.Open("/bin/"+name, proto.OCreate)
		if errno != kernel.OK {
			return errno
		}
		if _, errno := p.Write(fd, []byte("#!osiris\n")); errno != kernel.OK {
			p.Close(fd)
			return errno
		}
		if errno := p.Close(fd); errno != kernel.OK {
			return errno
		}
	}
	return kernel.OK
}
