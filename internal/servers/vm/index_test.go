package vm

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/sim"
)

// The frame index is a host-side shortcut: with it, exit and brk shrink
// must do to the store, in the same order and with the same Points, what
// the full table scan they replaced did — also when the table changes
// behind VM's back. The reference below is that scan, kept test-only.

// refHandle is VM.Handle with exit and brk shrink as full scans.
func refHandle(v *VM, ctx *kernel.Context, m kernel.Message) {
	shrink := m.Type == proto.VMBrk && m.B < 0
	if m.Type != proto.VMExit && !shrink {
		v.Handle(ctx, m)
		return
	}
	ctx.Point("vm.handle.entry")
	ctx.Tick(30)
	ep := m.A
	if shrink {
		ctx.Point("vm.brk")
		s, ok := v.spaces.Get(ep)
		want := -m.B
		if !ok || want > s.Pages {
			return
		}
		ctx.Call(seepUnmap, proto.EpSys, kernel.Message{Type: proto.SysUnmap, A: ep, B: want})
		released := int64(0)
		for i := v.frames.Len() - 1; i >= 0 && released < want; i-- {
			if v.frames.Get(i) == int32(ep) {
				v.frames.Set(i, 0)
				released++
				ctx.Point("vm.brk.release")
			}
		}
		v.used.Set(v.used.Get() - released)
		s.Pages -= released
		s.Brk -= released
		v.spaces.Set(ep, s)
		return
	}
	ctx.Point("vm.exit")
	sp, _ := v.spaces.Get(ep)
	ctx.Call(seepUnmap, proto.EpSys, kernel.Message{Type: proto.SysUnmap, A: ep, B: sp.Pages})
	freed := int64(0)
	for i := 0; i < v.frames.Len(); i++ {
		if v.frames.Get(i) == int32(ep) {
			v.frames.Set(i, 0)
			freed++
			ctx.Point("vm.free.frame")
		}
	}
	ctx.Tick(kernelScanCost)
	v.used.Set(v.used.Get() - freed)
	v.spaces.Delete(ep)
	ctx.Point("vm.exit.freed")
}

// vmBench runs body as a user process of a kernel with a stub system task
// and a requester that swallows VM's replies.
func vmBench(tb testing.TB, body func(ctx *kernel.Context)) {
	tb.Helper()
	k := kernel.New(kernel.DefaultCostModel(), 1)
	k.AddServer(proto.EpSys, "sys", func(ctx *kernel.Context) {
		for {
			m := ctx.Receive()
			ctx.ReplyErr(m.From, kernel.OK)
		}
	}, kernel.ServerConfig{})
	k.AddServer(nobody, "nobody", func(ctx *kernel.Context) {
		for {
			ctx.Receive()
		}
	}, kernel.ServerConfig{})
	root := k.SpawnUser("vm-driver", body)
	k.SetRootProcess(root.Endpoint())
	if res := k.Run(1 << 62); res.Outcome != kernel.OutcomeCompleted {
		tb.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
}

// nobody is the requester of the driven requests.
const nobody = kernel.Endpoint(9)

// midFault is what a step's Point hook does at the at-th release Point,
// or with alloc set at the at-th vm.alloc.frame Point.
type midFault struct {
	at    int
	alloc bool
	// seed feeds CorruptRandom; with aimAt set, the reference run first
	// searches for a seed that turns a free frame still ahead of the scan
	// (which runs in direction dir) into one of aimAt's, and the indexed
	// run reuses it.
	seed  uint64
	aimAt int32
	dir   int
	// crash fail-stops the request there instead, as an injected fault
	// does; the VM object is then used on, which recovery never does.
	crash bool
}

type injectedCrash struct{}

// differ drives one VM through a script and checks every request against
// the reference run on a clone of the store taken just before it.
type differ struct {
	t     *testing.T
	ctx   *kernel.Context
	store *memlog.Store
	v     *VM

	// While a request runs: the store it runs on, the table as the hook
	// last saw it, the Points so far, and the fault still to come.
	target *memlog.Store
	seen   []int32
	trace  []string
	fault  *midFault
	nth    int
	aimed  int // aimed corruptions that found their seed
}

// tableOf copies store's frame table out.
func tableOf(store *memlog.Store) []int32 {
	frames := memlog.NewSlice[int32](store, "vm.frames")
	table := make([]int32, frames.Len())
	for i := range table {
		table[i] = frames.Get(i)
	}
	return table
}

// hook records every Point, a release Point together with the frame that
// was released before it, and injects the request's fault.
func (d *differ) hook(_ kernel.Endpoint, _, site string) {
	if f := d.fault; d.seen != nil && f != nil && f.alloc && site == "vm.alloc.frame" {
		d.trace = append(d.trace, site)
		if d.nth++; d.nth == f.at {
			d.inject(f)
		}
		return
	}
	if d.seen == nil || (site != "vm.free.frame" && site != "vm.brk.release") {
		d.trace = append(d.trace, site)
		return
	}
	table := tableOf(d.target)
	at := -1
	for i := range table {
		if table[i] != d.seen[i] {
			d.trace = append(d.trace, fmt.Sprintf("%s %d", site, i))
			d.seen[i], at = table[i], i
		}
	}
	d.nth++
	if f := d.fault; f != nil && !f.alloc && d.nth == f.at {
		if f.aimAt != 0 && !f.crash {
			if seed, ok := d.aim(f, at); ok {
				f.seed = seed
				d.aimed++
			}
			f.aimAt = 0
		}
		d.inject(f)
	}
}

// inject crashes the request or corrupts the store it runs on.
func (d *differ) inject(f *midFault) {
	if f.crash {
		panic(injectedCrash{})
	}
	d.target.CorruptRandom(sim.NewRNG(f.seed))
	copy(d.seen, tableOf(d.target))
}

// aim finds a CorruptRandom seed that hands f.aimAt a free frame which
// the scan, standing on frame at, has not reached yet.
func (d *differ) aim(f *midFault, at int) (uint64, bool) {
	before := tableOf(d.target)
	for seed := uint64(1); seed < 4000; seed++ {
		probe := d.target.Clone()
		probe.CorruptRandom(sim.NewRNG(seed))
		for i, owner := range tableOf(probe) {
			if owner != before[i] {
				if before[i] == 0 && owner == f.aimAt && (i-at)*f.dir > 0 {
					return seed, true
				}
				break
			}
		}
	}
	return 0, false
}

// run handles m on store through handle and returns the Points it made.
func (d *differ) run(store *memlog.Store, handle func(), fault *midFault) (trace []string) {
	d.target, d.seen = store, tableOf(store)
	d.trace, d.fault, d.nth = nil, fault, 0
	defer func() {
		trace, d.seen = d.trace, nil
		if r := recover(); r != nil && r != (injectedCrash{}) {
			panic(r)
		}
	}()
	handle()
	return nil
}

// request runs m against the reference and then against the VM under
// test, both under fault, and compares what they did.
func (d *differ) request(m kernel.Message, fault *midFault) {
	d.t.Helper()
	m.From = nobody
	d.store.Checkpoint()
	ref := d.store.Clone()
	ref.SetGeneration(1) // as a restart's clone: New must not seed init into it
	refVM := New(ref, initEP)
	refTrace := d.run(ref, func() { refHandle(refVM, d.ctx, m) }, fault)
	trace := d.run(d.store, func() { d.v.Handle(d.ctx, m) }, fault)

	what := fmt.Sprintf("request type %d ep %d arg %d fault %+v", m.Type, m.A, m.B, fault)
	if len(refTrace) != len(trace) {
		d.t.Fatalf("%s: %d points, the full scan makes %d", what, len(trace), len(refTrace))
	}
	for i := range refTrace {
		if refTrace[i] != trace[i] {
			d.t.Fatalf("%s: point %d is %q, the full scan's is %q", what, i, trace[i], refTrace[i])
		}
	}
	got, _ := d.store.Fingerprint()
	want, _ := ref.Fingerprint()
	if got != want {
		d.t.Fatalf("%s: store differs from the full scan's (used %d vs %d)", what, d.v.used.Get(), refVM.used.Get())
	}
	if d.store.LogLen() != ref.LogLen() || d.store.LogBytes() != ref.LogBytes() {
		d.t.Fatalf("%s: undo log %d records / %d bytes, the full scan's %d / %d",
			what, d.store.LogLen(), d.store.LogBytes(), ref.LogLen(), ref.LogBytes())
	}
}

// checkIndex verifies that an index claiming to be in step is.
func (d *differ) checkIndex() {
	d.t.Helper()
	x := &d.v.owned
	if !x.inStep(d.v.frames) {
		return
	}
	listed := 0
	for owner, list := range x.lists {
		for j, i := range list {
			if j > 0 && list[j-1] >= i {
				d.t.Fatalf("index list of %d is not ascending: %v", owner, list)
			}
			if got := d.v.frames.Get(int(i)); got != owner {
				d.t.Fatalf("index gives frame %d to %d, the table to %d", i, owner, got)
			}
		}
		listed += len(list)
	}
	held := 0
	for i := 0; i < d.v.frames.Len(); i++ {
		if d.v.frames.Get(i) != 0 {
			held++
		}
	}
	if listed != held {
		d.t.Fatalf("index lists %d frames, the table holds %d", listed, held)
	}
}

func TestFrameIndexMatchesFullScan(t *testing.T) {
	// Endpoints that are a single bit, so that one flipped bit of a free
	// frame (0) can land on a live one.
	bitEPs := []int64{128, 256, 512, 1024, 2048, 4096}
	aimed, allocFaults := 0, 0
	for seed := uint64(1); seed <= 16; seed++ {
		vmBench(t, func(ctx *kernel.Context) {
			store := memlog.NewStore("vm", memlog.Unoptimized)
			d := &differ{t: t, ctx: ctx, store: store, v: New(store, initEP)}
			ctx.Kernel().SetPointHook(d.hook)
			r := sim.NewRNG(seed)
			// Faults in the middle of an allocation draw from a stream of
			// their own, which leaves the rest of the script as it was.
			ar := sim.NewRNG(seed ^ 0xa110c)
			allocFault := func() *midFault {
				switch ar.Intn(4) {
				case 0:
					allocFaults++
					return &midFault{alloc: true, at: 1 + ar.Intn(8), seed: ar.Uint64()}
				case 1:
					allocFaults++
					return &midFault{alloc: true, at: 1 + ar.Intn(8), crash: true}
				}
				return nil
			}
			next := int64(3000)
			if seed%2 == 0 {
				// Park the allocator near the end of the table, so that
				// the next address spaces wrap around and their frames are
				// not handed out in ascending order.
				filler := int64(TotalPages - DefaultProcPages - 40)
				d.v.Handle(ctx, kernel.Message{Type: proto.VMNewProc, A: 7777, B: filler, From: nobody})
				d.v.Handle(ctx, kernel.Message{Type: proto.VMExit, A: 7777, From: nobody})
			}
			store.Checkpoint() // boot is not up for rollback
			for step := 0; step < 70; step++ {
				owners := d.v.AuditSpaceOwners()
				pickOwner := func() int64 { return owners[r.Intn(len(owners))] }
				var fault *midFault
				switch r.Intn(5) {
				case 0:
					fault = &midFault{at: 1 + r.Intn(6), seed: r.Uint64()}
				case 1:
					fault = &midFault{at: 1 + r.Intn(3)}
				case 2:
					fault = &midFault{at: 1 + r.Intn(6), crash: true}
				}
				switch op := r.Intn(10); {
				case op < 3:
					ep := next
					next++
					if op < 2 {
						ep = bitEPs[r.Intn(len(bitEPs))]
					}
					d.request(kernel.Message{Type: proto.VMNewProc, A: ep, B: int64(1 + r.Intn(40))}, allocFault())
				case op == 3 && len(owners) > 0:
					d.request(kernel.Message{Type: proto.VMFork, A: pickOwner(), B: next}, allocFault())
					next++
				case op == 4 && len(owners) > 0:
					d.request(kernel.Message{Type: proto.VMBrk, A: pickOwner(), B: int64(1 + r.Intn(12))}, allocFault())
				case op < 7 && len(owners) > 0:
					ep := pickOwner()
					sp, _ := d.v.spaces.Get(ep)
					if fault != nil && fault.seed == 0 && !fault.crash && ep&(ep-1) == 0 {
						fault.aimAt, fault.dir = int32(ep), -1
					}
					d.request(kernel.Message{Type: proto.VMBrk, A: ep, B: -int64(1 + r.Intn(int(sp.Pages)+1))}, fault)
				case len(owners) > 1:
					ep := pickOwner()
					if fault != nil && fault.seed == 0 && !fault.crash && ep&(ep-1) == 0 {
						fault.aimAt, fault.dir = int32(ep), +1
					}
					d.request(kernel.Message{Type: proto.VMExit, A: ep}, fault)
				}
				d.checkIndex()

				// Between requests: what recovery and fault injection do
				// to a store behind the server's back.
				switch r.Intn(8) {
				case 0: // rollback in place, same VM: only the stamp can tell
					d.store.Rollback()
				case 1: // recovery: clone, transfer the log, roll back, rebind
					clone := d.store.Clone()
					clone.SetGeneration(1)
					d.store.TransferLog(clone)
					clone.Rollback()
					d.store, d.v = clone, New(clone, initEP)
				case 2: // naive restart: a new VM over the crashed state
					d.v = New(d.store, initEP)
				case 3: // fail-silent corruption, same VM
					d.store.CorruptRandom(sim.NewRNG(r.Uint64()))
				}
				d.checkIndex()
			}
			aimed += d.aimed
		})
		if t.Failed() {
			return
		}
	}
	t.Logf("%d aimed corruptions landed, %d faults drawn mid-allocation", aimed, allocFaults)
	if aimed < 3 {
		t.Fatalf("only %d runs hit the case a corrupted free frame lands on a live endpoint mid-release", aimed)
	}
}

// TestWrapAroundListStaysAscending pins the insertion that is not at
// the end: an address space allocated across the end of the table.
func TestWrapAroundListStaysAscending(t *testing.T) {
	vmBench(t, func(ctx *kernel.Context) {
		store := memlog.NewStore("vm", memlog.Optimized)
		v := New(store, initEP)
		send := func(typ kernel.MsgType, a, b int64) {
			v.Handle(ctx, kernel.Message{Type: typ, A: a, B: b, From: nobody})
		}
		send(proto.VMNewProc, 500, TotalPages-DefaultProcPages-10)
		send(proto.VMExit, 500, 0) // builds the index; the allocator stays at the end
		send(proto.VMNewProc, 501, 30)
		if !v.owned.inStep(v.frames) {
			t.Fatal("index fell out of step across VM's own stores")
		}
		list := v.owned.lists[501]
		if len(list) != 30 || list[0] != DefaultProcPages || list[29] != TotalPages-1 {
			t.Fatalf("wrapped address space listed as %v", list)
		}
		for j := 1; j < len(list); j++ {
			if list[j-1] >= list[j] {
				t.Fatalf("wrapped list not ascending: %v", list)
			}
		}
		send(proto.VMExit, 501, 0)
		if got := v.used.Get(); got != DefaultProcPages {
			t.Fatalf("used = %d after exits, want %d", got, DefaultProcPages)
		}
	})
}

// BenchmarkExit is the layer benchmark of the frame index: one newproc +
// exit of a default-sized address space beside 8, 64 and 512 live ones.
// ns/op is flat in the live count and the table size, linear in the
// pages of the exiting space (pages=16 vs pages=128).
func BenchmarkExit(b *testing.B) {
	for _, pages := range []int64{DefaultProcPages, 8 * DefaultProcPages} {
		for _, live := range []int{8, 64, 512} {
			b.Run(fmt.Sprintf("live=%d/pages=%d", live, pages), func(b *testing.B) {
				vmBench(b, func(ctx *kernel.Context) {
					store := memlog.NewStore("vm", memlog.Optimized)
					v := New(store, initEP)
					send := func(typ kernel.MsgType, a, b int64) {
						v.Handle(ctx, kernel.Message{Type: typ, A: a, B: b, From: nobody})
					}
					for i := 0; i < live; i++ {
						send(proto.VMNewProc, int64(1000+i), DefaultProcPages)
					}
					send(proto.VMNewProc, 900, pages)
					send(proto.VMExit, 900, 0)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						send(proto.VMNewProc, 900, pages)
						send(proto.VMExit, 900, 0)
					}
				})
			})
		}
	}
}
