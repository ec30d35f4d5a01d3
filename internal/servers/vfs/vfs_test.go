package vfs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/servers/driver"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// world wires a real VFS (custom multithreaded loop) and a real disk
// driver, both with their steps registered, then drives client. It
// returns the window for inspection.
func world(t *testing.T, client func(ctx *kernel.Context)) (*VFS, *seep.Window) {
	t.Helper()
	return worldOn(t, kernel.New(kernel.DefaultCostModel(), 1), client)
}

// worldOn is world on kernel k.
func worldOn(t *testing.T, k *kernel.Kernel, client func(ctx *kernel.Context)) (*VFS, *seep.Window) {
	t.Helper()
	drv := driver.New(DiskBlocks)
	k.AddServer(kernel.EpDriver, "driver", drv.Run, kernel.ServerConfig{Step: drv})

	store := memlog.NewStore("vfs", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	v := New(store)
	k.AddServer(kernel.EpVFS, "vfs", func(ctx *kernel.Context) {
		v.RunLoop(ctx, win)
	}, kernel.ServerConfig{Window: win, Store: store, Step: stepper{v, win}})

	root := k.SpawnUser("client", client)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(2_000_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	return v, win
}

// stepper registers the VFS's step as core does (kernel.Stepper), so that
// its leaf requests run on the client's coroutine.
type stepper struct {
	v   *VFS
	win *seep.Window
}

func (s stepper) Step(ctx *kernel.Context, m kernel.Message) { s.v.Step(ctx, s.win, m) }

func (s stepper) Leaf(m *kernel.Message) (sim.Cycles, bool) { return s.v.Leaf(m) }

// call is SendRec shorthand.
func call(ctx *kernel.Context, m kernel.Message) kernel.Message {
	return ctx.SendRec(kernel.EpVFS, m)
}

func TestOpenWriteReadThroughThreads(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/f", A: proto.OCreate})
		if o.Errno != kernel.OK {
			t.Fatalf("open = %v", o.Errno)
		}
		payload := bytes.Repeat([]byte("block"), 2000) // 10 KB: multi-block
		w := call(ctx, kernel.Message{Type: proto.VFSWrite, A: o.A, Bytes: payload})
		if w.Errno != kernel.OK || int(w.A) != len(payload) {
			t.Fatalf("write = %v n=%d", w.Errno, w.A)
		}
		call(ctx, kernel.Message{Type: proto.VFSSeek, A: o.A, B: 0})
		var got []byte
		for {
			r := call(ctx, kernel.Message{Type: proto.VFSRead, A: o.A, B: 4096})
			if r.Errno != kernel.OK {
				t.Fatalf("read = %v", r.Errno)
			}
			if len(r.Bytes) == 0 {
				break
			}
			got = append(got, r.Bytes...)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read back %d bytes, want %d", len(got), len(payload))
		}
	})
}

func TestWindowForceClosedWhileThreadsBusy(t *testing.T) {
	// While a worker thread is mid-I/O, other requests run with a
	// closed window (interleaving makes rollback unsafe).
	_, win := world(t, func(ctx *kernel.Context) {
		o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/g", A: proto.OCreate})
		w := call(ctx, kernel.Message{Type: proto.VFSWrite, A: o.A, Bytes: make([]byte, 4096)})
		if w.Errno != kernel.OK {
			t.Fatalf("write = %v", w.Errno)
		}
	})
	st := win.Stats()
	if st.WindowsClosed == 0 {
		t.Fatal("no forced/SEEP window closures recorded during threaded I/O")
	}
}

func TestStaleCompletionDropped(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		// A completion no thread is waiting for must be dropped, not
		// crash the server or wake a random thread.
		ctx.Send(kernel.EpVFS, kernel.Message{Type: proto.DevReadDone, D: 424242})
		r := call(ctx, kernel.Message{Type: proto.VFSStat, Str: "/"})
		if r.Errno != kernel.OK {
			t.Fatalf("VFS wedged after stale completion: %v", r.Errno)
		}
		if got := ctx.Kernel().Counters().Get("vfs.stale_completions"); got != 1 {
			t.Fatalf("stale_completions = %d, want 1", got)
		}
	})
}

func TestPipeSuspensionAndWake(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		if p.Errno != kernel.OK {
			t.Fatalf("pipe = %v", p.Errno)
		}
		rfd, wfd := p.A, p.B

		reader := ctx.Kernel().SpawnUser("reader", func(c *kernel.Context) {
			// Transfer the read end by sharing fd numbers is not
			// possible across endpoints; instead this process writes.
			_ = c
		})
		_ = reader

		// Single-process round trip with suspension cannot block the
		// same process twice, so exercise the waiter slot directly: a
		// read on an empty pipe from a second process suspends until
		// this process writes.
		helper := ctx.Kernel().SpawnUser("helper", func(c *kernel.Context) {
			// The helper has no fds: give it the pair via ForkFDs.
			r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSRead, A: rfd, B: 8})
			if r.Errno != kernel.EBADF {
				t.Errorf("helper read without fds = %v, want EBADF", r.Errno)
			}
		})
		_ = helper

		// Copy our fd table to a child and let it block reading.
		child := ctx.Kernel().SpawnUser("blockedreader", func(c *kernel.Context) {
			r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSRead, A: rfd, B: 8})
			if r.Errno != kernel.OK || string(r.Bytes) != "wake" {
				t.Errorf("suspended read = %v %q", r.Errno, r.Bytes)
			}
		})
		fk := call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(child.Endpoint())})
		if fk.Errno != kernel.OK {
			t.Fatalf("forkfds = %v", fk.Errno)
		}
		ctx.Tick(100_000) // let the child suspend on the empty pipe
		w := call(ctx, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: []byte("wake")})
		if w.Errno != kernel.OK {
			t.Fatalf("write = %v", w.Errno)
		}
		ctx.Tick(100_000) // let the child finish
	})
}

func TestSecondWaiterGetsEAGAIN(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		rfd := p.A
		spawnBlockedReader := func(name string, want kernel.Errno) kernel.Endpoint {
			proc := ctx.Kernel().SpawnUser(name, func(c *kernel.Context) {
				r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSRead, A: rfd, B: 1})
				if r.Errno != want {
					t.Errorf("%s read = %v, want %v", name, r.Errno, want)
				}
			})
			call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(proc.Endpoint())})
			return proc.Endpoint()
		}
		first := spawnBlockedReader("first", kernel.OK)
		ctx.Tick(50_000)
		second := spawnBlockedReader("second", kernel.EAGAIN)
		ctx.Tick(50_000)
		// Wake the first reader so the run can finish.
		call(ctx, kernel.Message{Type: proto.VFSWrite, A: p.B, Bytes: []byte("x")})
		ctx.Tick(50_000)
		_, _ = first, second
	})
}

func TestExitFDsReleasesEverything(t *testing.T) {
	v, _ := world(t, func(ctx *kernel.Context) {
		o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/h", A: proto.OCreate})
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		if o.Errno != kernel.OK || p.Errno != kernel.OK {
			t.Fatalf("setup: %v %v", o.Errno, p.Errno)
		}
		e := call(ctx, kernel.Message{Type: proto.VFSExitFDs, A: int64(ctx.Endpoint())})
		if e.Errno != kernel.OK {
			t.Fatalf("exitfds = %v", e.Errno)
		}
		// All descriptors are gone.
		r := call(ctx, kernel.Message{Type: proto.VFSRead, A: o.A, B: 1})
		if r.Errno != kernel.EBADF {
			t.Errorf("read after exitfds = %v, want EBADF", r.Errno)
		}
	})
	if v.fds.Len() != 0 {
		t.Fatalf("fd table has %d entries after exit", v.fds.Len())
	}
	if v.pipes.Len() != 0 {
		t.Fatalf("pipe table has %d entries after exit", v.pipes.Len())
	}
}

func TestDescriptorLimit(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		opened := 0
		for i := 0; i < maxFDs+4; i++ {
			o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/limit", A: proto.OCreate})
			if o.Errno == kernel.OK {
				opened++
				continue
			}
			if o.Errno != kernel.ENOSPC {
				t.Fatalf("open #%d = %v, want ENOSPC at the limit", i, o.Errno)
			}
			break
		}
		if opened != maxFDs {
			t.Fatalf("opened %d descriptors, want %d", opened, maxFDs)
		}
	})
}

func TestSyncAndUnknown(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		if r := call(ctx, kernel.Message{Type: proto.VFSSync}); r.Errno != kernel.OK {
			t.Errorf("sync = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: 995}); r.Errno != kernel.ENOSYS {
			t.Errorf("unknown = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.RSPing}); r.Type != proto.RSPing {
			t.Errorf("ping = %+v", r)
		}
	})
}

func TestDataSurvivesCloneRemount(t *testing.T) {
	// The recovery flow at VFS scale: write a file, clone the store,
	// rebind a fresh VFS over the clone and read the data back through
	// the same driver.
	k := kernel.New(kernel.DefaultCostModel(), 1)
	drv := driver.New(DiskBlocks)
	k.AddServer(kernel.EpDriver, "driver", drv.Run, kernel.ServerConfig{})

	store := memlog.NewStore("vfs", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	v := New(store)
	k.AddServer(kernel.EpVFS, "vfs", func(ctx *kernel.Context) { v.RunLoop(ctx, win) },
		kernel.ServerConfig{Window: win, Store: store})

	var clone *memlog.Store
	root := k.SpawnUser("client", func(ctx *kernel.Context) {
		o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/persist", A: proto.OCreate})
		call(ctx, kernel.Message{Type: proto.VFSWrite, A: o.A, Bytes: []byte("durable")})
		clone = store.Clone()
	})
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(2_000_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v", res.Outcome)
	}

	v2 := New(clone)
	ino, errno := v2.FS().Lookup("/persist")
	if errno != kernel.OK {
		t.Fatalf("lookup on clone = %v", errno)
	}
	node, _ := v2.FS().Stat(ino)
	if node.Size != int64(len("durable")) {
		t.Fatalf("clone size = %d", node.Size)
	}
}

func TestChdirResolvesRelativePaths(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		if r := call(ctx, kernel.Message{Type: proto.VFSMkdir, Str: "/dir"}); r.Errno != kernel.OK {
			t.Fatalf("mkdir = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSChdir, Str: "/dir"}); r.Errno != kernel.OK {
			t.Fatalf("chdir = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSGetcwd}); r.Str != "/dir" {
			t.Fatalf("getcwd = %q", r.Str)
		}
		o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "rel", A: proto.OCreate})
		if o.Errno != kernel.OK {
			t.Fatalf("relative open = %v", o.Errno)
		}
		st := call(ctx, kernel.Message{Type: proto.VFSStat, Str: "/dir/rel"})
		if st.Errno != kernel.OK {
			t.Fatalf("absolute stat of relative create = %v", st.Errno)
		}
		// exitfds clears the cwd record too.
		call(ctx, kernel.Message{Type: proto.VFSExitFDs, A: int64(ctx.Endpoint())})
		if r := call(ctx, kernel.Message{Type: proto.VFSGetcwd}); r.Str != "/" {
			t.Fatalf("cwd after exit = %q, want /", r.Str)
		}
	})
}

func TestMetadataOpsSweep(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		// mkdir / readdir / unlink / rename / close paths.
		if r := call(ctx, kernel.Message{Type: proto.VFSMkdir, Str: "/md"}); r.Errno != kernel.OK {
			t.Fatalf("mkdir = %v", r.Errno)
		}
		o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/md/a", A: proto.OCreate})
		if o.Errno != kernel.OK {
			t.Fatalf("open = %v", o.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSClose, A: o.A}); r.Errno != kernel.OK {
			t.Fatalf("close = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSClose, A: o.A}); r.Errno != kernel.EBADF {
			t.Fatalf("double close = %v", r.Errno)
		}
		ls := call(ctx, kernel.Message{Type: proto.VFSReadDir, Str: "/md"})
		names, _ := ls.Aux.([]string)
		if ls.Errno != kernel.OK || len(names) != 1 || names[0] != "a" {
			t.Fatalf("readdir = %v %v", ls.Errno, names)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSRename, Str: "/md/a", Str2: "/md/b"}); r.Errno != kernel.OK {
			t.Fatalf("rename = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSUnlink, Str: "/md/b"}); r.Errno != kernel.OK {
			t.Fatalf("unlink = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSUnlink, Str: "/md"}); r.Errno != kernel.OK {
			t.Fatalf("rmdir = %v", r.Errno)
		}
		// Error paths.
		if r := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/none"}); r.Errno != kernel.ENOENT {
			t.Fatalf("open missing = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/", A: 0}); r.Errno != kernel.EISDIR {
			t.Fatalf("open dir = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSStat, Str: "/none"}); r.Errno != kernel.ENOENT {
			t.Fatalf("stat missing = %v", r.Errno)
		}
		if r := call(ctx, kernel.Message{Type: proto.VFSSeek, A: 99, B: 0}); r.Errno != kernel.EBADF {
			t.Fatalf("seek badfd = %v", r.Errno)
		}
	})
}

func TestPipeCapacitySuspendsAndResumesWriter(t *testing.T) {
	v, _ := world(t, func(ctx *kernel.Context) {
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		rfd, wfd := p.A, p.B

		// Fill to capacity, then have a child writer suspend.
		full := make([]byte, PipeCap)
		if r := call(ctx, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: full}); r.Errno != kernel.OK {
			t.Fatalf("fill = %v", r.Errno)
		}
		writer := ctx.Kernel().SpawnUser("writer", func(c *kernel.Context) {
			r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: []byte("late")})
			if r.Errno != kernel.OK || r.A != 4 {
				t.Errorf("suspended write = %v n=%d", r.Errno, r.A)
			}
		})
		call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(writer.Endpoint())})
		ctx.Tick(50_000) // let the writer suspend

		// A second suspended writer gets EAGAIN.
		second := ctx.Kernel().SpawnUser("writer2", func(c *kernel.Context) {
			r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: []byte("x")})
			if r.Errno != kernel.EAGAIN {
				t.Errorf("second suspended write = %v, want EAGAIN", r.Errno)
			}
		})
		call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(second.Endpoint())})
		ctx.Tick(50_000)

		// Draining resumes the first writer.
		r := call(ctx, kernel.Message{Type: proto.VFSRead, A: rfd, B: PipeCap})
		if r.Errno != kernel.OK || len(r.Bytes) != PipeCap {
			t.Fatalf("drain = %v %d bytes", r.Errno, len(r.Bytes))
		}
		ctx.Tick(50_000)
		tail := call(ctx, kernel.Message{Type: proto.VFSRead, A: rfd, B: 16})
		if string(tail.Bytes) != "late" {
			t.Fatalf("resumed write content = %q", tail.Bytes)
		}
	})
	if v.writers.Len() != 0 {
		t.Fatalf("writer waiters leaked: %d", v.writers.Len())
	}
}

// A suspended write resumes only once the whole of it fits: a read that
// frees less room than the write needs leaves the writer suspended, so the
// pipe never holds more than PipeCap bytes.
func TestResumedWriterFitsInPipe(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		rfd, wfd := p.A, p.B
		call(ctx, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: make([]byte, PipeCap-10)})
		late := bytes.Repeat([]byte{'L'}, 1000)
		writer := ctx.Kernel().SpawnUser("writer", func(c *kernel.Context) {
			r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: late})
			if r.Errno != kernel.OK || r.A != int64(len(late)) {
				t.Errorf("suspended write = %v n=%d", r.Errno, r.A)
			}
		})
		call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(writer.Endpoint())})
		ctx.Tick(50_000) // let the writer suspend
		if r := call(ctx, kernel.Message{Type: proto.VFSRead, A: rfd, B: 1}); len(r.Bytes) != 1 {
			t.Fatalf("read of 1 = %v %d bytes", r.Errno, len(r.Bytes))
		}
		ctx.Tick(50_000)
		if r := call(ctx, kernel.Message{Type: proto.VFSRead, A: rfd, B: 2 * PipeCap}); len(r.Bytes) != PipeCap-11 {
			t.Fatalf("the pipe held %d bytes after a 1-byte read, want %d: the writer resumed into a full pipe", len(r.Bytes), PipeCap-11)
		}
		ctx.Tick(50_000) // the drain resumed the writer
		if r := call(ctx, kernel.Message{Type: proto.VFSRead, A: rfd, B: 2 * PipeCap}); !bytes.Equal(r.Bytes, late) {
			t.Fatalf("resumed write reads back %d bytes, want its %d", len(r.Bytes), len(late))
		}
	})
}

// A pipe read lends the pipe's bytes, with the capacity clipped to the
// read: appending to the result copies, so the bytes still in the pipe,
// and the next read of them, stay as written.
func TestLentPipeReadStaysClipped(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		call(ctx, kernel.Message{Type: proto.VFSWrite, A: p.B, Bytes: []byte("abcdefgh")})
		first := call(ctx, kernel.Message{Type: proto.VFSRead, A: p.A, B: 4}).Bytes
		_ = append(first, "XY"...)
		if got := call(ctx, kernel.Message{Type: proto.VFSRead, A: p.A, B: 4}).Bytes; string(first) != "abcd" || string(got) != "efgh" {
			t.Fatalf("read 4 twice, appending to the first = %q then %q, want abcd then efgh", first, got)
		}
		if cap(first) != len(first) {
			t.Fatalf("a read of 4 has capacity %d", cap(first))
		}
	})
}

func TestBrokenPipeWakesSuspendedWriter(t *testing.T) {
	world(t, func(ctx *kernel.Context) {
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		rfd, wfd := p.A, p.B
		call(ctx, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: make([]byte, PipeCap)})
		writer := ctx.Kernel().SpawnUser("writer", func(c *kernel.Context) {
			r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSWrite, A: wfd, Bytes: []byte("x")})
			if r.Errno != kernel.EPIPE {
				t.Errorf("suspended write after reader close = %v, want EPIPE", r.Errno)
			}
		})
		call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(writer.Endpoint())})
		ctx.Tick(50_000)
		// Close ALL read ends: ours and the writer's inherited copy.
		call(ctx, kernel.Message{Type: proto.VFSClose, A: rfd})
		r := ctx.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSExitFDs, A: int64(writer.Endpoint())})
		_ = r
		ctx.Tick(50_000)
	})
}

func TestExitDropsSuspendedWaiters(t *testing.T) {
	v, _ := world(t, func(ctx *kernel.Context) {
		p := call(ctx, kernel.Message{Type: proto.VFSPipe})
		rfd := p.A
		// A child suspends reading, then is torn down without ever
		// being woken (its fds and waiter record must both go).
		child := ctx.Kernel().SpawnUser("doomedreader", func(c *kernel.Context) {
			c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSRead, A: rfd, B: 1})
		})
		call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(child.Endpoint())})
		ctx.Tick(50_000) // child suspends
		ctx.Kernel().TerminateProcess(child.Endpoint())
		call(ctx, kernel.Message{Type: proto.VFSExitFDs, A: int64(child.Endpoint())})
		// A new reader can now take the waiter slot.
		second := ctx.Kernel().SpawnUser("newreader", func(c *kernel.Context) {
			r := c.SendRec(kernel.EpVFS, kernel.Message{Type: proto.VFSRead, A: rfd, B: 4})
			if r.Errno != kernel.OK || string(r.Bytes) != "data" {
				t.Errorf("new reader = %v %q", r.Errno, r.Bytes)
			}
		})
		call(ctx, kernel.Message{Type: proto.VFSForkFDs, A: int64(ctx.Endpoint()), B: int64(second.Endpoint())})
		ctx.Tick(50_000)
		call(ctx, kernel.Message{Type: proto.VFSWrite, A: p.B, Bytes: []byte("data")})
		ctx.Tick(50_000)
	})
	if v.waiters.Len() != 0 {
		t.Fatalf("stale waiters: %d", v.waiters.Len())
	}
}

// pipeEntV1 and pipeWaiterV1 are the pipe records of image format v1,
// which the field lists keep: the bytes held as a string. Their lists are
// the ones the records had before the bytes became a []byte.
type pipeEntV1 struct {
	Data    string
	Readers int32
	Writers int32
}

func (p *pipeEntV1) Code(c *wire.Codec) {
	c.Str(&p.Data)
	wire.Int(c, &p.Readers)
	wire.Int(c, &p.Writers)
}

type pipeWaiterV1 struct {
	EP      int64
	N       int64
	Pending string
}

func (w *pipeWaiterV1) Code(c *wire.Codec) {
	wire.Int(c, &w.EP)
	wire.Int(c, &w.N)
	c.Str(&w.Pending)
}

// heldBytes is s as a pipe holds it: nil when empty, or, with alt, an
// empty slice, which must code alike.
func heldBytes(s string, alt bool) []byte {
	if s == "" && !alt {
		return nil
	}
	return []byte(s)
}

// sameAsV1 holds the field list of T to that of its v1 layout V, which
// the reflective walk checks: for 300 seeded V values, the T that holds
// the same bytes (conv, with either form of empty bytes: heldBytes) codes
// to the same bytes and the same hash, and V's bytes decode to the T conv
// gives without alt.
func sameAsV1[T, V any](t *testing.T, conv func(V, bool) T) {
	t.Helper()
	wiretest.SameAsValue(t, wiretest.Random[V])
	encode := func(code func(*wire.Codec)) []byte {
		e := wire.NewEncoder()
		c := wire.Encoding(e)
		if code(c); c.Err() != nil {
			t.Fatalf("encode: %v", c.Err())
		}
		return e.Bytes()
	}
	hash := func(code func(*wire.Codec)) uint64 {
		c := wire.Hashing(sim.NewHash())
		code(&c)
		return c.Sum()
	}
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 300; i++ {
		v1 := wiretest.Random[V](r)
		want := encode(func(c *wire.Codec) { wire.Elem(c, &v1) })
		wantHash := hash(func(c *wire.Codec) { wire.Elem(c, &v1) })
		for _, alt := range []bool{false, true} {
			x := conv(v1, alt)
			if got := encode(func(c *wire.Codec) { wire.Elem(c, &x) }); !bytes.Equal(got, want) {
				t.Fatalf("%+v codes as %x, its v1 layout as %x", x, got, want)
			}
			if got := hash(func(c *wire.Codec) { wire.Elem(c, &x) }); got != wantHash {
				t.Fatalf("%+v hashes apart from its v1 layout", x)
			}
		}
		var back T
		d := wire.NewDecoder(want)
		if wire.Elem(wire.Decoding(d), &back); d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("decode of %x: %v, %d bytes left", want, d.Err(), d.Remaining())
		}
		if x := conv(v1, false); !reflect.DeepEqual(back, x) {
			t.Fatalf("%x decodes as %+v, want %+v", want, back, x)
		}
	}
}

// The field lists of VFS's three records and its fork state against their
// definition, the reflective walk of the declarations (the two pipe
// records through their v1 layouts): same bytes, and back; the fork
// state also in its slot, nil or under its tag. Hashed, every field of
// the three records counts.
func TestFieldLists(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[fdEnt])
	sameAsV1(t, func(v pipeEntV1, alt bool) pipeEnt {
		return pipeEnt{Data: heldBytes(v.Data, alt), Readers: v.Readers, Writers: v.Writers}
	})
	sameAsV1(t, func(v pipeWaiterV1, alt bool) pipeWaiter {
		return pipeWaiter{EP: v.EP, N: v.N, Pending: heldBytes(v.Pending, alt)}
	})
	wiretest.HashCovers[fdEnt](t)
	wiretest.HashCovers[pipeEnt](t)
	wiretest.HashCovers[pipeWaiter](t)
	wiretest.SameAsValue(t, wiretest.Random[vfsForkState])
	wiretest.Register("vfs.forkState", vfsForkState{})
	wiretest.SameAsAny(t, CodeForkState, func(r *rand.Rand) any {
		if r.Intn(4) == 0 {
			return nil
		}
		return wiretest.Random[vfsForkState](r)
	})
}

// Descriptor inheritance and release declare ticks for the descriptors
// the named process holds. At the limit, maxFDs of them, both are served
// as leaf steps, where the kernel holds the step to its
// bound: an overrun would end the run with a kernel fault. The quantum
// never runs out, so only the bound decides.
func TestForkAndExitFDsStayWithinTheirBound(t *testing.T) {
	cost := kernel.DefaultCostModel()
	cost.Quantum = 1 << 40
	k := kernel.New(cost, 1)
	v, _ := worldOn(t, k, func(ctx *kernel.Context) {
		for i := 0; i < maxFDs; i++ {
			if o := call(ctx, kernel.Message{Type: proto.VFSOpen, Str: "/many", A: proto.OCreate}); o.Errno != kernel.OK {
				t.Fatalf("open #%d = %v", i, o.Errno)
			}
		}
		parent, child := int64(ctx.Endpoint()), int64(ctx.Endpoint()+1)
		for _, m := range []kernel.Message{
			{Type: proto.VFSForkFDs, A: parent, B: child},
			{Type: proto.VFSExitFDs, A: child},
			{Type: proto.VFSExitFDs, A: parent},
		} {
			served, _ := k.LeafCalls()
			if r := call(ctx, m); r.Errno != kernel.OK {
				t.Errorf("request type %d = %v", m.Type, r.Errno)
			}
			if now, _ := k.LeafCalls(); now == served {
				t.Errorf("request type %d was not served as a leaf step", m.Type)
			}
		}
	})
	if n := v.fds.Len(); n != 0 {
		t.Errorf("%d descriptors left after both processes released theirs", n)
	}
	if ticks, _ := v.Leaf(&kernel.Message{Type: proto.VFSExitFDs, A: 1}); ticks != dispatchTicks+50 {
		t.Errorf("a process with no descriptors declares %d ticks, want %d", ticks, dispatchTicks+50)
	}
}
