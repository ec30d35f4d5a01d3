// Package vfs implements the Virtual File System server: descriptor
// tables, pipes, and file I/O over the fs substrate and the disk driver.
//
// The VFS is multithreaded (paper §IV-E, §V): slow device operations
// run on cooperative worker threads so one process's disk read does not
// block the whole system. Recovery windows interact with threading
// conservatively: the window force-closes whenever a thread yields or
// when another thread is still in flight, so rollback is attempted only
// when exactly one request has touched state since the checkpoint.
package vfs

import (
	"repro/internal/cothread"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ctrStaleCompletions counts driver completions that arrive after their
// worker thread is gone (restart races).
var ctrStaleCompletions = sim.RegisterCounter("vfs.stale_completions")

// Configuration of the VFS.
const (
	// NumThreads is the worker-thread pool size.
	NumThreads = 8
	// DiskBlocks is the simulated disk size in fs blocks (16 MiB).
	DiskBlocks = 4096
	// maxFDs is the per-process descriptor limit.
	maxFDs = 64
	// PipeCap is the pipe buffer capacity; writers beyond it suspend
	// until a reader drains the pipe, like the 16 KiB PIPE_BUF region
	// of the original system.
	PipeCap = 16 * 1024
)

// SEEP call sites of the VFS. Reading a device block does not modify
// driver state (read-only); writing one does.
var (
	seepDevRead  = seep.Passage{Name: "vfs->driver.read", Class: seep.ClassReadOnly}
	seepDevWrite = seep.Passage{Name: "vfs->driver.write", Class: seep.ClassMutating}
)

// fdKind distinguishes descriptor types.
type fdKind int32

const (
	fdFile fdKind = iota + 1
	fdPipeR
	fdPipeW
)

// fdEnt is one open descriptor.
type fdEnt struct {
	Kind   fdKind
	Ino    int64
	Offset int64
	Pipe   int64
}

// Code is the descriptor's field list (wire.Coder).
func (f *fdEnt) Code(c *wire.Codec) {
	wire.Int(c, &f.Kind)
	wire.Int(c, &f.Ino)
	wire.Int(c, &f.Offset)
	wire.Int(c, &f.Pipe)
}

// pipeEnt is one pipe. Data, the bytes written and not yet read, is
// immutable: the undo log, a snapshot and its forks share it with the
// live pipe, and a read reply lends a prefix of it to the reader
// (kernel.Message). A write installs a fresh slice (appendBytes); a read
// lends its prefix with the capacity clipped (take) and keeps the rest.
type pipeEnt struct {
	Data    []byte
	Readers int32
	Writers int32
}

// Code is the pipe's field list (wire.Coder). Data codes as a string
// (wire.Codec.StrBytes), the image format v1 layout.
func (p *pipeEnt) Code(c *wire.Codec) {
	c.StrBytes(&p.Data)
	wire.Int(c, &p.Readers)
	wire.Int(c, &p.Writers)
}

// pipeWaiter is a process suspended on a pipe: a reader awaiting data
// (N bytes wanted) or a writer awaiting space (Pending bytes to append,
// immutable like pipeEnt.Data). The reply to EP is postponed until the
// pipe state allows progress.
type pipeWaiter struct {
	EP      int64
	N       int64
	Pending []byte
}

// Code is the waiter's field list (wire.Coder); Pending codes as a string,
// like pipeEnt.Data.
func (w *pipeWaiter) Code(c *wire.Codec) {
	wire.Int(c, &w.EP)
	wire.Int(c, &w.N)
	c.StrBytes(&w.Pending)
}

// appendBytes returns the bytes of held followed by b in a fresh slice:
// held is shared (pipeEnt), so the append must not write past its end.
func appendBytes(held, b []byte) []byte {
	return append(held[:len(held):len(held)], b...)
}

// VFS is the Virtual File System server.
type VFS struct {
	fsys *fs.FS

	fds      *memlog.Map[int64, fdEnt]
	nextFd   *memlog.Map[int64, int64]
	cwds     *memlog.Map[int64, string]
	pipes    *memlog.Map[int64, pipeEnt]
	nextPipe *memlog.Cell[int64]
	waiters  *memlog.Map[int64, pipeWaiter] // pipe id -> suspended reader
	writers  *memlog.Map[int64, pipeWaiter] // pipe id -> suspended writer

	// Thread-routing state. This is scheduler bookkeeping, not
	// recoverable component state: a recovered clone starts with a
	// fresh pool, and stale completions are dropped by tag mismatch.
	pool    *cothread.Pool
	io      []fileIO // one per pool thread, made with the pool
	tagBase int64
	nextTag int64
}

// New binds a VFS over store (fresh or recovered clone).
func New(store *memlog.Store) *VFS {
	return &VFS{
		fsys:     fs.New(store, DiskBlocks),
		fds:      memlog.NewMap[int64, fdEnt](store, "vfs.fds"),
		nextFd:   memlog.NewMap[int64, int64](store, "vfs.next_fd"),
		cwds:     memlog.NewMap[int64, string](store, "vfs.cwds"),
		pipes:    memlog.NewMap[int64, pipeEnt](store, "vfs.pipes"),
		nextPipe: memlog.NewCell(store, "vfs.next_pipe", int64(1)),
		waiters:  memlog.NewMap[int64, pipeWaiter](store, "vfs.pipe_waiters"),
		writers:  memlog.NewMap[int64, pipeWaiter](store, "vfs.pipe_writers"),
	}
}

// Name implements the component interface.
func (v *VFS) Name() string { return "vfs" }

// FS exposes the mounted filesystem (tests and tooling).
func (v *VFS) FS() *fs.FS { return v.fsys }

// fdKey packs (endpoint, fd) into one map key.
func fdKey(ep kernel.Endpoint, fd int64) int64 { return int64(ep)<<16 | (fd & 0xffff) }

// RunLoop is the VFS's custom multithreaded request loop; the core
// framework calls it instead of the generic single-threaded loop.
func (v *VFS) RunLoop(ctx *kernel.Context, win *seep.Window) {
	v.pool = cothread.NewPool(ctx, NumThreads)
	v.io = make([]fileIO, NumThreads)
	for i := range v.io {
		io := &v.io[i]
		io.v, io.ctx, io.t = v, ctx, v.pool.Thread(i)
		io.job = io.serve
	}
	v.tagBase = int64(ctx.Kernel().Counters().Get("kernel.procs_replaced")+1) << 32

	for {
		v.Step(ctx, win, ctx.Receive())
	}
}

// Step serves one request: the body of RunLoop's loop.
func (v *VFS) Step(ctx *kernel.Context, win *seep.Window, m kernel.Message) {
	win.BeginRequest(m.NeedsReply)
	ctx.Point("vfs.loop.top")
	// Interleaving with in-flight threads makes rollback unsafe: close
	// the window up front (more conservative than the paper, never less
	// safe).
	if v.pool.BusyCount() > 0 {
		win.ForceClose()
	}
	v.dispatch(ctx, m)
	win.EndRequest()
}

// dispatchTicks is what dispatch charges every request.
const dispatchTicks = 40

// Leaf names the requests Step serves without suspending the VFS — on
// the main loop, with no worker thread — and bounds their ticks
// (core.Leaf). A read or write on a pipe, or on no descriptor, is one:
// an empty or full pipe defers the reply, never the VFS. Descriptor
// inheritance and release charge for each descriptor the named process
// holds (releasePipeEnd charges nothing).
func (v *VFS) Leaf(m *kernel.Message) (sim.Cycles, bool) {
	switch m.Type {
	case proto.VFSSeek, proto.VFSStat, proto.VFSGetcwd, proto.VFSChdir:
		return dispatchTicks + 40, true
	case proto.RSPing:
		return dispatchTicks, true
	case proto.VFSForkFDs, proto.VFSExitFDs:
		return dispatchTicks + 50 + 5*sim.Cycles(v.heldFDs(kernel.Endpoint(m.A))), true
	case proto.VFSRead, proto.VFSWrite:
		e, ok := v.fds.Get(fdKey(m.From, m.A))
		return dispatchTicks + 30, !ok || e.Kind != fdFile
	}
	return 0, false
}

// heldFDs counts the descriptors ep holds.
func (v *VFS) heldFDs(ep kernel.Endpoint) int {
	n := 0
	for fd := int64(0); fd < maxFDs; fd++ {
		if _, ok := v.fds.Get(fdKey(ep, fd)); ok {
			n++
		}
	}
	return n
}

func (v *VFS) dispatch(ctx *kernel.Context, m kernel.Message) {
	ctx.Tick(dispatchTicks)
	switch m.Type {
	case proto.DevReadDone, proto.DevWriteDone:
		v.routeCompletion(ctx, m)
	case proto.VFSOpen:
		v.open(ctx, m)
	case proto.VFSClose:
		v.close(ctx, m)
	case proto.VFSRead:
		v.read(ctx, m)
	case proto.VFSWrite:
		v.write(ctx, m)
	case proto.VFSSeek:
		v.seek(ctx, m)
	case proto.VFSStat:
		v.stat(ctx, m)
	case proto.VFSUnlink:
		v.unlink(ctx, m)
	case proto.VFSMkdir:
		v.mkdir(ctx, m)
	case proto.VFSRename:
		v.rename(ctx, m)
	case proto.VFSChdir:
		v.chdir(ctx, m)
	case proto.VFSGetcwd:
		ctx.Point("vfs.getcwd")
		ctx.Tick(15)
		ctx.Reply(m.From, kernel.Message{Str: v.cwd(m.From)})
	case proto.VFSReadDir:
		v.readdir(ctx, m)
	case proto.VFSPipe:
		v.pipe(ctx, m)
	case proto.VFSForkFDs:
		v.forkFDs(ctx, m)
	case proto.VFSExitFDs:
		v.exitFDs(ctx, m)
	case proto.VFSSync:
		ctx.Point("vfs.sync")
		ctx.Tick(100)
		ctx.ReplyErr(m.From, kernel.OK)
	case proto.RSPing:
		ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})
	default:
		if m.NeedsReply {
			ctx.ReplyErr(m.From, kernel.ENOSYS)
		}
	}
}

// routeCompletion hands an asynchronous device completion to the worker
// thread that issued it. Stale completions (from before a recovery)
// carry tags no live thread owns and are dropped.
func (v *VFS) routeCompletion(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.completion")
	for i := range v.io {
		if io := &v.io[i]; io.t.Busy() && io.tag == m.D {
			io.t.Resume(m)
			return
		}
	}
	ctx.Kernel().Counters().AddID(ctrStaleCompletions, 1)
}

// fileIO is one worker thread's file request and the fs.BlockDevice the
// request runs over: block requests go to the driver asynchronously and
// the thread blocks until the main loop routes the completion back. The
// records are made once, with the pool, and a thread serves one request
// at a time, so starting a request allocates nothing.
type fileIO struct {
	v   *VFS
	ctx *kernel.Context
	t   *cothread.Thread
	job func(*cothread.Thread) // serve, bound once

	// The request in service: the tag its completions carry, the message,
	// and the descriptor it arrived on.
	tag     int64
	m       kernel.Message
	e       fdEnt
	key     int64
	isWrite bool
}

var _ fs.BlockDevice = (*fileIO)(nil)

func (io *fileIO) ReadBlock(b int32) ([]byte, kernel.Errno) {
	io.ctx.Point("vfs.dev.read")
	errno := io.ctx.SendSeep(seepDevRead, kernel.EpDriver,
		kernel.Message{Type: proto.DevRead, A: int64(b), D: io.tag})
	if errno != kernel.OK {
		return nil, errno
	}
	done := io.t.Block()
	// Post-completion processing: the thread yielded, so the window is
	// closed here under any policy.
	io.ctx.Point("vfs.dev.read.done")
	io.ctx.Tick(25)
	if done.Errno != kernel.OK {
		return nil, done.Errno
	}
	return done.Bytes, kernel.OK
}

func (io *fileIO) WriteBlock(b int32, data []byte) kernel.Errno {
	io.ctx.Point("vfs.dev.write")
	errno := io.ctx.SendSeep(seepDevWrite, kernel.EpDriver,
		kernel.Message{Type: proto.DevWrite, A: int64(b), D: io.tag, Bytes: data})
	if errno != kernel.OK {
		return errno
	}
	done := io.t.Block()
	io.ctx.Point("vfs.dev.write.done")
	io.ctx.Tick(25)
	return done.Errno
}

// cwd returns the caller's working directory ("/" when never set).
func (v *VFS) cwd(ep kernel.Endpoint) string {
	if dir, ok := v.cwds.Get(int64(ep)); ok {
		return dir
	}
	return "/"
}

// resolve turns a possibly-relative path into an absolute one using the
// caller's working directory.
func (v *VFS) resolve(ep kernel.Endpoint, path string) string {
	if len(path) > 0 && path[0] == '/' {
		return path
	}
	dir := v.cwd(ep)
	if dir == "/" {
		return "/" + path
	}
	return dir + "/" + path
}

func (v *VFS) chdir(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.chdir")
	ctx.Tick(40)
	path := v.resolve(m.From, m.Str)
	ino, errno := v.fsys.Lookup(path)
	if errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	node, _ := v.fsys.Stat(ino)
	if node.Type != fs.TypeDir {
		ctx.ReplyErr(m.From, kernel.ENOTDIR)
		return
	}
	v.cwds.Set(int64(m.From), path)
	ctx.ReplyErr(m.From, kernel.OK)
}

// lookupFD resolves the caller's descriptor.
func (v *VFS) lookupFD(from kernel.Endpoint, fd int64) (fdEnt, int64, bool) {
	key := fdKey(from, fd)
	e, ok := v.fds.Get(key)
	return e, key, ok
}

// allocFD assigns the next free descriptor number for ep.
func (v *VFS) allocFD(ep kernel.Endpoint, e fdEnt) (int64, kernel.Errno) {
	next, _ := v.nextFd.Get(int64(ep))
	for probe := int64(0); probe < maxFDs; probe++ {
		fd := (next + probe) % maxFDs
		if _, used := v.fds.Get(fdKey(ep, fd)); !used {
			v.fds.Set(fdKey(ep, fd), e)
			v.nextFd.Set(int64(ep), (fd+1)%maxFDs)
			return fd, kernel.OK
		}
	}
	return 0, kernel.ENOSPC
}

func (v *VFS) open(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.open.entry")
	ctx.Tick(60)
	path, flags := v.resolve(m.From, m.Str), m.A
	ino, errno := v.fsys.Lookup(path)
	switch {
	case errno == kernel.OK && flags&proto.OExcl != 0 && flags&proto.OCreate != 0:
		ctx.ReplyErr(m.From, kernel.EEXIST)
		return
	case errno == kernel.ENOENT && flags&proto.OCreate != 0:
		ino, errno = v.fsys.Create(path)
		if errno != kernel.OK {
			ctx.ReplyErr(m.From, errno)
			return
		}
	case errno != kernel.OK:
		ctx.ReplyErr(m.From, errno)
		return
	}
	node, errno := v.fsys.Stat(ino)
	if errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	if node.Type == fs.TypeDir {
		ctx.ReplyErr(m.From, kernel.EISDIR)
		return
	}
	if flags&proto.OTrunc != 0 {
		if errno := v.fsys.Truncate(ino); errno != kernel.OK {
			ctx.ReplyErr(m.From, errno)
			return
		}
	}
	fd, errno := v.allocFD(m.From, fdEnt{Kind: fdFile, Ino: ino})
	if errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	ctx.Point("vfs.open.done")
	ctx.Reply(m.From, kernel.Message{A: fd})
}

func (v *VFS) close(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.close")
	ctx.Tick(30)
	e, key, ok := v.lookupFD(m.From, m.A)
	if !ok {
		ctx.ReplyErr(m.From, kernel.EBADF)
		return
	}
	v.fds.Delete(key)
	v.releasePipeEnd(ctx, e)
	ctx.ReplyErr(m.From, kernel.OK)
}

// releasePipeEnd updates pipe reference counts when a descriptor goes
// away, waking a suspended reader with EOF if the last writer left.
func (v *VFS) releasePipeEnd(ctx *kernel.Context, e fdEnt) {
	if e.Kind == fdFile {
		return
	}
	p, ok := v.pipes.Get(e.Pipe)
	if !ok {
		return
	}
	switch e.Kind {
	case fdPipeR:
		p.Readers--
	case fdPipeW:
		p.Writers--
	}
	if p.Writers == 0 {
		if w, waiting := v.waiters.Get(e.Pipe); waiting && len(p.Data) == 0 {
			// EOF to the suspended reader.
			ctx.Reply(kernel.Endpoint(w.EP), kernel.Message{Bytes: nil})
			v.waiters.Delete(e.Pipe)
		}
	}
	if p.Readers == 0 {
		if w, waiting := v.writers.Get(e.Pipe); waiting {
			// The suspended writer can never complete: broken pipe.
			ctx.ReplyErr(kernel.Endpoint(w.EP), kernel.EPIPE)
			v.writers.Delete(e.Pipe)
		}
	}
	if p.Readers <= 0 && p.Writers <= 0 {
		v.pipes.Delete(e.Pipe)
		return
	}
	v.pipes.Set(e.Pipe, p)
}

func (v *VFS) seek(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.seek")
	ctx.Tick(20)
	e, key, ok := v.lookupFD(m.From, m.A)
	if !ok || e.Kind != fdFile {
		ctx.ReplyErr(m.From, kernel.EBADF)
		return
	}
	if m.B < 0 {
		ctx.ReplyErr(m.From, kernel.EINVAL)
		return
	}
	e.Offset = m.B
	v.fds.Set(key, e)
	ctx.Reply(m.From, kernel.Message{A: e.Offset})
}

func (v *VFS) stat(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.stat")
	ctx.Tick(40)
	ino, errno := v.fsys.Lookup(v.resolve(m.From, m.Str))
	if errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	node, errno := v.fsys.Stat(ino)
	if errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	ctx.Reply(m.From, kernel.Message{A: node.Size, B: int64(node.Type), C: node.Ino})
}

func (v *VFS) unlink(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.unlink")
	ctx.Tick(60)
	ctx.ReplyErr(m.From, v.fsys.Unlink(v.resolve(m.From, m.Str)))
}

func (v *VFS) mkdir(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.mkdir")
	ctx.Tick(50)
	_, errno := v.fsys.Mkdir(v.resolve(m.From, m.Str))
	ctx.ReplyErr(m.From, errno)
}

func (v *VFS) rename(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.rename")
	ctx.Tick(70)
	ctx.ReplyErr(m.From, v.fsys.Rename(v.resolve(m.From, m.Str), v.resolve(m.From, m.Str2)))
}

func (v *VFS) readdir(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.readdir")
	ctx.Tick(60)
	names, errno := v.fsys.ReadDir(v.resolve(m.From, m.Str))
	if errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	ctx.Reply(m.From, kernel.Message{Aux: names})
}

func (v *VFS) pipe(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.pipe")
	ctx.Tick(50)
	id := v.nextPipe.Get()
	v.nextPipe.Set(id + 1)
	v.pipes.Set(id, pipeEnt{Readers: 1, Writers: 1})
	rfd, errno := v.allocFD(m.From, fdEnt{Kind: fdPipeR, Pipe: id})
	if errno != kernel.OK {
		v.pipes.Delete(id)
		ctx.ReplyErr(m.From, errno)
		return
	}
	wfd, errno := v.allocFD(m.From, fdEnt{Kind: fdPipeW, Pipe: id})
	if errno != kernel.OK {
		v.fds.Delete(fdKey(m.From, rfd))
		v.pipes.Delete(id)
		ctx.ReplyErr(m.From, errno)
		return
	}
	ctx.Reply(m.From, kernel.Message{A: rfd, B: wfd})
}

func (v *VFS) forkFDs(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.forkfds")
	ctx.Tick(50)
	parent, child := kernel.Endpoint(m.A), kernel.Endpoint(m.B)
	if dir, ok := v.cwds.Get(int64(parent)); ok {
		v.cwds.Set(int64(child), dir)
	}
	for fd := int64(0); fd < maxFDs; fd++ {
		e, ok := v.fds.Get(fdKey(parent, fd))
		if !ok {
			continue
		}
		v.fds.Set(fdKey(child, fd), e)
		if e.Kind != fdFile {
			if p, ok := v.pipes.Get(e.Pipe); ok {
				switch e.Kind {
				case fdPipeR:
					p.Readers++
				case fdPipeW:
					p.Writers++
				}
				v.pipes.Set(e.Pipe, p)
			}
		}
		ctx.Tick(5)
	}
	ctx.ReplyErr(m.From, kernel.OK)
}

func (v *VFS) exitFDs(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.exitfds")
	ctx.Tick(50)
	ep := kernel.Endpoint(m.A)
	for fd := int64(0); fd < maxFDs; fd++ {
		key := fdKey(ep, fd)
		if e, ok := v.fds.Get(key); ok {
			v.fds.Delete(key)
			v.releasePipeEnd(ctx, e)
			ctx.Tick(5)
		}
	}
	v.nextFd.Delete(int64(ep))
	v.cwds.Delete(int64(ep))
	// Drop any suspended pipe operations the dead process still owns:
	// a stale waiter would block other processes with EAGAIN forever.
	v.dropWaitersOf(int64(ep))
	ctx.ReplyErr(m.From, kernel.OK)
}

// dropWaitersOf removes suspended reader/writer records owned by ep.
func (v *VFS) dropWaitersOf(ep int64) {
	var stale []int64
	v.waiters.ForEach(func(pipe int64, w pipeWaiter) bool {
		if w.EP == ep {
			stale = append(stale, pipe)
		}
		return true
	})
	for _, pipe := range stale {
		v.waiters.Delete(pipe)
	}
	stale = stale[:0]
	v.writers.ForEach(func(pipe int64, w pipeWaiter) bool {
		if w.EP == ep {
			stale = append(stale, pipe)
		}
		return true
	})
	for _, pipe := range stale {
		v.writers.Delete(pipe)
	}
}

func (v *VFS) read(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.read.entry")
	e, key, ok := v.lookupFD(m.From, m.A)
	if !ok {
		ctx.ReplyErr(m.From, kernel.EBADF)
		return
	}
	switch e.Kind {
	case fdPipeW:
		ctx.ReplyErr(m.From, kernel.EBADF)
	case fdPipeR:
		v.pipeRead(ctx, m, e)
	default:
		v.startFileIO(ctx, m, e, key, false)
	}
}

func (v *VFS) write(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vfs.write.entry")
	e, key, ok := v.lookupFD(m.From, m.A)
	if !ok {
		ctx.ReplyErr(m.From, kernel.EBADF)
		return
	}
	switch e.Kind {
	case fdPipeR:
		ctx.ReplyErr(m.From, kernel.EBADF)
	case fdPipeW:
		v.pipeWrite(ctx, m, e)
	default:
		v.startFileIO(ctx, m, e, key, true)
	}
}

// startFileIO runs a regular-file read or write on a worker thread.
func (v *VFS) startFileIO(ctx *kernel.Context, m kernel.Message, e fdEnt, key int64, isWrite bool) {
	t := v.pool.Idle()
	if t == nil {
		ctx.ReplyErr(m.From, kernel.EAGAIN)
		return
	}
	v.nextTag++
	io := &v.io[t.ID()]
	io.tag, io.m, io.e, io.key, io.isWrite = v.tagBase+v.nextTag, m, e, key, isWrite
	// If the thread blocks on the device, the window is already closed
	// (the device SEEP closed it); the main loop continues serving.
	t.Start(io.job)
}

// serve is the worker thread's job: the request in io, to completion.
func (io *fileIO) serve(*cothread.Thread) {
	v, ctx, m, e := io.v, io.ctx, io.m, io.e
	io.m = kernel.Message{} // the record keeps no payload alive
	if io.isWrite {
		ctx.Point("vfs.write.file")
		// Copying the payload between the caller and the block layer
		// is real per-byte server work.
		ctx.Tick(30 + sim.Cycles(len(m.Bytes))/4)
		n, errno := v.fsys.WriteAt(io, e.Ino, e.Offset, m.Bytes)
		if errno != kernel.OK && n == 0 {
			ctx.ReplyErr(m.From, errno)
			return
		}
		e.Offset += int64(n)
		v.fds.Set(io.key, e)
		ctx.Reply(m.From, kernel.Message{A: int64(n)})
		return
	}
	ctx.Point("vfs.read.file")
	ctx.Tick(30)
	data, errno := v.fsys.ReadAt(io, e.Ino, e.Offset, int(m.B))
	if errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	ctx.Tick(sim.Cycles(len(data)) / 4)
	e.Offset += int64(len(data))
	v.fds.Set(io.key, e)
	ctx.Reply(m.From, kernel.Message{Bytes: data})
}

func (v *VFS) pipeRead(ctx *kernel.Context, m kernel.Message, e fdEnt) {
	ctx.Point("vfs.pipe.read")
	ctx.Tick(30)
	p, ok := v.pipes.Get(e.Pipe)
	if !ok {
		ctx.ReplyErr(m.From, kernel.EBADF)
		return
	}
	n := int(m.B)
	if n <= 0 {
		ctx.Reply(m.From, kernel.Message{Bytes: nil})
		return
	}
	if len(p.Data) > 0 {
		data := p.take(n)
		// Draining may unblock a suspended writer.
		v.resumeWriter(ctx, e.Pipe, &p)
		v.pipes.Set(e.Pipe, p)
		ctx.Reply(m.From, kernel.Message{Bytes: data})
		return
	}
	if p.Writers == 0 {
		ctx.Reply(m.From, kernel.Message{Bytes: nil}) // EOF
		return
	}
	// Suspend: reply postponed until a writer delivers data.
	if _, busy := v.waiters.Get(e.Pipe); busy {
		ctx.ReplyErr(m.From, kernel.EAGAIN) // one suspended reader per pipe
		return
	}
	v.waiters.Set(e.Pipe, pipeWaiter{EP: int64(m.From), N: m.B})
}

// take removes the first n bytes of the pipe, at most all of them, and
// returns them without a copy: a read reply lends them (pipeEnt).
func (p *pipeEnt) take(n int) []byte {
	n = min(n, len(p.Data))
	data := p.Data[:n:n]
	p.Data = p.Data[n:]
	return data
}

// resumeWriter completes a suspended pipe write once the whole of it
// fits: a write is all or nothing, like the one that suspended it.
func (v *VFS) resumeWriter(ctx *kernel.Context, pipe int64, p *pipeEnt) {
	w, waiting := v.writers.Get(pipe)
	if !waiting || len(p.Data)+len(w.Pending) > PipeCap {
		return
	}
	v.writers.Delete(pipe)
	p.Data = appendBytes(p.Data, w.Pending)
	ctx.Reply(kernel.Endpoint(w.EP), kernel.Message{A: int64(len(w.Pending))})
}

func (v *VFS) pipeWrite(ctx *kernel.Context, m kernel.Message, e fdEnt) {
	ctx.Point("vfs.pipe.write")
	ctx.Tick(30)
	p, ok := v.pipes.Get(e.Pipe)
	if !ok {
		ctx.ReplyErr(m.From, kernel.EBADF)
		return
	}
	if p.Readers == 0 {
		ctx.ReplyErr(m.From, kernel.EPIPE)
		return
	}
	if len(m.Bytes) > PipeCap {
		ctx.ReplyErr(m.From, kernel.EINVAL)
		return
	}
	if len(p.Data)+len(m.Bytes) > PipeCap {
		// Full: suspend the writer until a reader drains the pipe.
		if _, busy := v.writers.Get(e.Pipe); busy {
			ctx.ReplyErr(m.From, kernel.EAGAIN)
			return
		}
		v.writers.Set(e.Pipe, pipeWaiter{EP: int64(m.From), Pending: append([]byte(nil), m.Bytes...)})
		return
	}
	p.Data = appendBytes(p.Data, m.Bytes)
	// Wake a suspended reader, if any.
	if w, waiting := v.waiters.Get(e.Pipe); waiting && len(p.Data) > 0 {
		data := p.take(int(w.N))
		v.waiters.Delete(e.Pipe)
		ctx.Reply(kernel.Endpoint(w.EP), kernel.Message{Bytes: data})
	}
	v.pipes.Set(e.Pipe, p)
	ctx.Reply(m.From, kernel.Message{A: int64(len(m.Bytes))})
}

// vfsForkState is the transient thread-routing state carried across a
// warm fork: only the tag cursor — the pool itself is rebuilt idle,
// which is exact because capture requires quiescence (no thread busy).
type vfsForkState struct {
	NextTag int64
}

// Code lists the fork state's fields.
func (s *vfsForkState) Code(c *wire.Codec) { wire.Int(c, &s.NextTag) }

// CodeForkState codes the slot that holds what ForkSnapshot returns —
// nil, or the fork state under its tag vfs.forkState — for the on-disk
// image and the transient digest.
func CodeForkState(c *wire.Codec, p *any) {
	wire.Tagged(c, p, "vfs.forkState", wire.Elem[vfsForkState])
}

// ForkSnapshot captures the tag cursor (core.Forkable). tagBase is not
// captured: RunLoop recomputes it from the restored counters, which
// yields the captured value bit-identically.
func (v *VFS) ForkSnapshot() any {
	return vfsForkState{NextTag: v.nextTag}
}

// ApplyForkSnapshot restores the tag cursor into a fresh instance.
func (v *VFS) ApplyForkSnapshot(snap any) {
	if s, ok := snap.(vfsForkState); ok {
		v.nextTag = s.NextTag
	}
}

// AuditFDOwners returns the unique endpoints owning at least one open
// file descriptor, in first-appearance order. The consistency auditor
// checks that every owner is a live process (or a server).
func (v *VFS) AuditFDOwners() []int64 {
	var out []int64
	seen := make(map[int64]bool)
	v.fds.ForEach(func(key int64, _ fdEnt) bool {
		ep := key >> 16
		if !seen[ep] {
			seen[ep] = true
			out = append(out, ep)
		}
		return true
	})
	return out
}

// Busy reports whether VFS has work in flight outside the main loop:
// worker threads running file I/O jobs, or pipe ends suspended with a
// postponed reply. The consistency auditor exempts a busy VFS from
// idle-state oracles.
func (v *VFS) Busy() bool {
	if v.pool != nil && v.pool.BusyCount() > 0 {
		return true
	}
	return v.waiters.Len() > 0 || v.writers.Len() > 0
}
