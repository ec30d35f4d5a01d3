package vfs

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/servers/driver"
	"repro/internal/wire/wiretest"
)

// world wires a real VFS (custom multithreaded loop) and a real disk
// driver, then drives client. It returns the window for inspection.
func world(t *testing.T, client func(ctx *kernel.Context)) (*VFS, *seep.Window) {
	t.Helper()
	k := kernel.New(kernel.DefaultCostModel(), 1)
	drv := driver.New(DiskBlocks)
	k.AddServer(kernel.EpDriver, "driver", drv.Run, kernel.ServerConfig{})

	store := memlog.NewStore("vfs", memlog.Optimized)
	win := seep.NewWindow(seep.PolicyEnhanced, store)
	v := New(store)
	k.AddServer(kernel.EpVFS, "vfs", func(ctx *kernel.Context) {
		v.RunLoop(ctx, win)
	}, kernel.ServerConfig{Window: win, Store: store})

	root := k.SpawnUser("client", client)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(2_000_000_000); res.Outcome != kernel.OutcomeCompleted {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	return v, win
}

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

// The field lists of VFS's three records and its fork state against their
// definition, the reflective walk of the declarations: same bytes, and
// back; the fork state also in its slot, nil or under its tag. Hashed,
// every field of the three records counts.
func TestFieldLists(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[fdEnt])
	wiretest.SameAsValue(t, wiretest.Random[pipeEnt])
	wiretest.SameAsValue(t, wiretest.Random[pipeWaiter])
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
