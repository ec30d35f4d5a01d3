// Package vm implements the Virtual Memory Manager: address-space
// accounting, fork-time copying, brk, and physical frame bookkeeping.
//
// VM is the memory-heavy component of the system: it owns a frame table
// sized to physical memory, which dominates both its clone size and its
// undo-log high-water mark — reproducing the shape of Table VI, where
// VM accounts for nearly all recovery memory overhead.
package vm

import (
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/proto"
	"repro/internal/seep"
	"repro/internal/sim"
	"repro/internal/wire"
)

// copyPageCost is the per-page cost of copying an address space on fork.
const copyPageCost sim.Cycles = 200

// TotalPages is the simulated physical memory size in pages.
const TotalPages = 16384

// DefaultProcPages is the initial address-space size of a new process.
const DefaultProcPages = 16

// SEEP call sites of the VM server. Page-table manipulation changes
// kernel state, so these are state-modifying under any policy.
var (
	seepMap   = seep.Passage{Name: "vm->sys.map", Class: seep.ClassMutating}
	seepUnmap = seep.Passage{Name: "vm->sys.unmap", Class: seep.ClassMutating}
)

// space is one process address space.
type space struct {
	EP    int64
	Pages int64
	Brk   int64
}

// Code is the space's field list (wire.Coder).
func (s *space) Code(c *wire.Codec) {
	wire.Int(c, &s.EP)
	wire.Int(c, &s.Pages)
	wire.Int(c, &s.Brk)
}

// VM is the Virtual Memory Manager server.
type VM struct {
	spaces *memlog.Map[int64, space]
	used   *memlog.Cell[int64]
	// frames maps each physical frame to its owning endpoint (0 =
	// free). It is the large arena that makes VM clones expensive.
	frames *memlog.Slice[int32]
	// nextFrame scans for free frames round-robin.
	nextFrame *memlog.Cell[int]

	// owned is derived from frames and host-only: it is in no image, fork,
	// fingerprint or undo log, and a VM bound over any store starts
	// without one.
	owned frameIndex
}

// frameIndex lists, for every owner in the frame table, the frames it
// holds in ascending order, so that releasing an address space costs its
// pages and not a scan of physical memory. It is trusted only while the
// table's mutation count is the one it last saw (stamp): VM's own writes
// update both, and anything else that changes the table — a rollback, a
// restore, a silent corruption — leaves the count ahead, which makes the
// next user rebuild the index from the table.
type frameIndex struct {
	lists map[int32][]int32 // nil until the first rebuild
	spare [][]int32         // emptied lists, for the next new owner
	stamp uint64
}

// inStep reports whether the index describes frames as it is now.
func (x *frameIndex) inStep(frames *memlog.Slice[int32]) bool {
	return x.lists != nil && x.stamp == frames.Mutations()
}

// rebuild derives the index from the table: the one full scan.
func (x *frameIndex) rebuild(frames *memlog.Slice[int32]) {
	if x.lists == nil {
		x.lists = make(map[int32][]int32)
	}
	for owner, list := range x.lists {
		x.spare = append(x.spare, list[:0])
		delete(x.lists, owner)
	}
	// Address spaces are mostly runs of neighbouring frames: look an
	// owner's list up when the owner changes, not per frame.
	var cur int32
	var list []int32
	for base := 0; base < frames.Len(); {
		page := frames.PageFrom(base)
		for j, owner := range page {
			if owner == 0 {
				continue
			}
			if owner != cur {
				if cur != 0 {
					x.lists[cur] = list
				}
				cur, list = owner, x.lists[owner]
				if list == nil {
					list = x.newList()
				}
			}
			list = append(list, int32(base+j))
		}
		base += len(page)
	}
	if cur != 0 {
		x.lists[cur] = list
	}
	x.stamp = frames.Mutations()
}

func (x *frameIndex) newList() []int32 {
	if n := len(x.spare); n > 0 {
		list := x.spare[n-1]
		x.spare = x.spare[:n-1]
		return list
	}
	return make([]int32, 0, DefaultProcPages)
}

// insertFrame adds frame i to an ascending list. The round-robin
// allocator hands out ascending frames until it wraps, so the insertion
// is at the end except then.
func insertFrame(list []int32, i int32) []int32 {
	list = append(list, i)
	for j := len(list) - 1; j > 0 && list[j-1] > list[j]; j-- {
		list[j-1], list[j] = list[j], list[j-1]
	}
	return list
}

// shrink records that owner, which held list, now holds only rest of it.
func (x *frameIndex) shrink(owner int32, list, rest []int32) {
	if len(rest) > 0 {
		x.lists[owner] = rest
	} else if list != nil {
		delete(x.lists, owner)
		x.spare = append(x.spare, list[:0])
	}
}

// framesOf returns the frames owner holds, ascending, from an index that
// is in step with the table. The list is the index's own.
func (v *VM) framesOf(owner int32) []int32 {
	if !v.owned.inStep(v.frames) {
		v.owned.rebuild(v.frames)
	}
	return v.owned.lists[owner]
}

// frameClaims gives free frames to one owner, holding the owner's index
// list from the first claim to done, as release holds it: one lookup and
// one write-back per allocation, not per frame. The list follows the
// table while every store to it is a claim's (mine); one that is not — a
// fault at a Point between claims corrupts the table — drops the list,
// and a fault that crashes VM never reaches done. Either way the stamp
// stays behind the table and the next user rebuilds the index.
type frameClaims struct {
	v       *VM
	owner   int32
	list    []int32
	mine    uint64
	indexed bool
}

func (v *VM) claims(owner int32) frameClaims {
	c := frameClaims{v: v, owner: owner, indexed: v.owned.inStep(v.frames)}
	if c.indexed {
		c.list, c.mine = v.owned.lists[owner], v.frames.Mutations()
	}
	return c
}

// claim gives the free frame i to the owner.
func (c *frameClaims) claim(i int) {
	frames := c.v.frames
	c.indexed = c.indexed && frames.Mutations() == c.mine
	frames.Set(i, c.owner)
	if !c.indexed {
		return
	}
	if c.list == nil {
		c.list = c.v.owned.newList()
	}
	c.list = insertFrame(c.list, int32(i))
	c.mine = frames.Mutations()
}

// done writes the list back and stamps the index, when the list still
// follows the table.
func (c *frameClaims) done() {
	if !c.indexed || c.v.frames.Mutations() != c.mine {
		return
	}
	if c.list != nil {
		c.v.owned.lists[c.owner] = c.list
	}
	c.v.owned.stamp = c.mine
}

// New binds a VM server over store (fresh or recovered clone). initEP
// is the endpoint of the initial workload process, which receives a
// default address space on a fresh store.
func New(store *memlog.Store, initEP int64) *VM {
	v := &VM{
		spaces:    memlog.NewMap[int64, space](store, "vm.spaces"),
		used:      memlog.NewCell(store, "vm.used", int64(0)),
		frames:    memlog.NewSlice[int32](store, "vm.frames"),
		nextFrame: memlog.NewCell(store, "vm.next_frame", 0),
	}
	if v.frames.Len() == 0 {
		v.frames.Grow(TotalPages)
	}
	// Seed the init address space only at first boot (see pm.New).
	if _, ok := v.spaces.Get(initEP); !ok && initEP != 0 && v.spaces.Len() == 0 && store.Generation() == 0 {
		v.seedSpace(initEP, DefaultProcPages)
	}
	return v
}

// seedSpace installs an address space without kernel interaction (boot).
func (v *VM) seedSpace(ep, pages int64) {
	scan := v.nextFrame.Get()
	claims := v.claims(int32(ep))
	for claimed := int64(0); claimed < pages; claimed++ {
		for v.frames.Get(scan%TotalPages) != 0 {
			scan++
		}
		claims.claim(scan % TotalPages)
		scan++
	}
	claims.done()
	v.nextFrame.Set(scan % TotalPages)
	v.used.Set(v.used.Get() + pages)
	v.spaces.Set(ep, space{EP: ep, Pages: pages, Brk: pages})
}

// Name implements the component interface.
func (v *VM) Name() string { return "vm" }

// handleTicks is what Handle charges every request.
const handleTicks = 30

// Leaf names the request Handle serves without suspending VM, a heartbeat
// ping, and bounds its ticks (core.Leaf).
func (v *VM) Leaf(m *kernel.Message) (sim.Cycles, bool) {
	return handleTicks, m.Type == proto.RSPing
}

// Handle processes one request.
func (v *VM) Handle(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vm.handle.entry")
	ctx.Tick(handleTicks)
	switch m.Type {
	case proto.VMNewProc:
		v.newProc(ctx, m)
	case proto.VMFork:
		v.fork(ctx, m)
	case proto.VMExit:
		v.exit(ctx, m)
	case proto.VMBrk:
		v.brk(ctx, m)
	case proto.VMQuery:
		v.query(ctx, m)
	case proto.RSPing:
		ctx.Reply(m.From, kernel.Message{Type: proto.RSPing})
	default:
		if m.NeedsReply {
			ctx.ReplyErr(m.From, kernel.ENOSYS)
		}
	}
}

// mapChunk is the granularity at which VM installs mappings through
// the system task: real address spaces are mapped region by region, so
// the kernel map calls interleave with the allocation work. The first
// chunk's map call closes the recovery window; the remaining allocation
// work executes outside it — which is why VM's recovery coverage sits
// in the middle of Table I under both policies.
const mapChunk = 4

// allocFrames claims n physical frames for ep and installs the
// mappings chunk by chunk. It returns ENOMEM without allocation if
// memory is exhausted.
func (v *VM) allocFrames(ctx *kernel.Context, ep int64, n int64) kernel.Errno {
	if v.used.Get()+n > TotalPages {
		return kernel.ENOMEM
	}
	scan := v.nextFrame.Get()
	claimed := int64(0)
	claims := v.claims(int32(ep))
	for claimed < n {
		chunk := int64(0)
		for claimed < n && chunk < mapChunk {
			for v.frames.Get(scan%TotalPages) != 0 {
				scan++
				ctx.Tick(1)
			}
			claims.claim(scan % TotalPages)
			scan++
			claimed++
			chunk++
			ctx.Point("vm.alloc.frame")
		}
		r := ctx.Call(seepMap, proto.EpSys, kernel.Message{Type: proto.SysMap, A: ep, B: chunk})
		if r.Errno != kernel.OK {
			claims.done()
			return r.Errno
		}
		ctx.Tick(15)
	}
	claims.done()
	v.nextFrame.Set(scan % TotalPages)
	v.used.Set(v.used.Get() + n)
	ctx.Point("vm.alloc.done")
	return kernel.OK
}

// freeFrames tells the kernel to drop the mappings, then releases every
// frame owned by ep, lowest first — after the unmap call, outside the
// recovery window.
func (v *VM) freeFrames(ctx *kernel.Context, ep int64, pages int64) int64 {
	ctx.Call(seepUnmap, proto.EpSys, kernel.Message{Type: proto.SysUnmap, A: ep, B: pages})
	freed := v.release(ctx, int32(ep), TotalPages, +1, "vm.free.frame")
	ctx.Tick(kernelScanCost)
	v.used.Set(v.used.Get() - freed)
	return freed
}

// release frees up to want frames of owner (an address space's endpoint,
// never 0) — walking the table upwards (dir +1) or downwards (dir -1) as
// the simulated scan does — with a Point at site after each, and returns
// how many it freed. It takes the frames from the index while the index
// stays in step. A Point is where a fault hook runs: one that corrupts
// the table (which can also hand a free frame to owner) leaves the index
// out of step, and release then finishes as the plain scan from where it
// stands; one that crashes VM unwinds from here with the index out of
// step as well, because the stamp moves on only once the whole list is
// dealt with.
func (v *VM) release(ctx *kernel.Context, owner int32, want int64, dir int, site string) int64 {
	list := v.framesOf(owner)
	lo, hi := 0, len(list) // list[lo:hi] is still owner's
	at := -1               // the frame release stands on
	if dir < 0 {
		at = TotalPages
	}
	freed := int64(0)
	mine := v.owned.stamp // the table's count after release's own last store
	for freed < want && lo < hi && v.frames.Mutations() == mine {
		if dir > 0 {
			at = int(list[lo])
			lo++
		} else {
			hi--
			at = int(list[hi])
		}
		v.frames.Set(at, 0)
		mine = v.frames.Mutations()
		freed++
		ctx.Point(site)
	}
	if v.frames.Mutations() == mine {
		v.owned.shrink(owner, list, list[lo:hi])
		v.owned.stamp = mine
		return freed
	}
	for at += dir; freed < want && at >= 0 && at < TotalPages; at += dir {
		if v.frames.Get(at) == owner {
			v.frames.Set(at, 0)
			freed++
			ctx.Point(site)
		}
	}
	return freed
}

const kernelScanCost = 256

func (v *VM) newProc(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vm.newproc")
	ep, pages := m.A, m.B
	if pages <= 0 {
		pages = DefaultProcPages
	}
	if _, exists := v.spaces.Get(ep); exists {
		ctx.ReplyErr(m.From, kernel.EEXIST)
		return
	}
	if errno := v.allocFrames(ctx, ep, pages); errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	v.spaces.Set(ep, space{EP: ep, Pages: pages, Brk: pages})
	ctx.Point("vm.newproc.mapped")
	ctx.ReplyErr(m.From, kernel.OK)
}

func (v *VM) fork(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vm.fork")
	parent, child := m.A, m.B
	ps, ok := v.spaces.Get(parent)
	if !ok {
		// PM believes this process exists; VM has no space for it. The
		// address-space tables are inconsistent with the process table —
		// a defensive assertion fail-stops the component (§II-E).
		ctx.Crash("vm: fork from endpoint %d with no address space", parent)
	}
	if _, exists := v.spaces.Get(child); exists {
		ctx.ReplyErr(m.From, kernel.EEXIST)
		return
	}
	if errno := v.allocFrames(ctx, child, ps.Pages); errno != kernel.OK {
		ctx.ReplyErr(m.From, errno)
		return
	}
	// Copying the parent's pages costs real time proportional to size.
	ctx.Tick(copyPageCost * sim.Cycles(ps.Pages))
	v.spaces.Set(child, space{EP: child, Pages: ps.Pages, Brk: ps.Brk})
	ctx.Point("vm.fork.copied")
	ctx.ReplyErr(m.From, kernel.OK)
}

func (v *VM) exit(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vm.exit")
	ep := m.A
	sp, ok := v.spaces.Get(ep)
	if !ok {
		// Same inconsistency as fork: PM is tearing down a process VM
		// has never seen.
		ctx.Crash("vm: exit for endpoint %d with no address space", ep)
	}
	v.freeFrames(ctx, ep, sp.Pages)
	v.spaces.Delete(ep)
	ctx.Point("vm.exit.freed")
	ctx.ReplyErr(m.From, kernel.OK)
}

func (v *VM) brk(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vm.brk")
	ep, delta := m.A, m.B
	s, ok := v.spaces.Get(ep)
	if !ok {
		ctx.ReplyErr(m.From, kernel.ESRCH)
		return
	}
	switch {
	case delta > 0:
		if errno := v.allocFrames(ctx, ep, delta); errno != kernel.OK {
			ctx.ReplyErr(m.From, errno)
			return
		}
		s.Pages += delta
		s.Brk += delta
		v.spaces.Set(ep, s)
		ctx.Point("vm.brk.grown")
		ctx.Reply(m.From, kernel.Message{A: s.Pages})
	case delta < 0:
		// Shrinking releases frames owned by ep, highest first.
		want := -delta
		if want > s.Pages {
			ctx.ReplyErr(m.From, kernel.EINVAL)
			return
		}
		ctx.Call(seepUnmap, proto.EpSys, kernel.Message{Type: proto.SysUnmap, A: ep, B: want})
		released := v.release(ctx, int32(ep), want, -1, "vm.brk.release")
		v.used.Set(v.used.Get() - released)
		s.Pages -= released
		s.Brk -= released
		v.spaces.Set(ep, s)
		ctx.Reply(m.From, kernel.Message{A: s.Pages})
	default:
		ctx.Reply(m.From, kernel.Message{A: s.Pages})
	}
}

func (v *VM) query(ctx *kernel.Context, m kernel.Message) {
	ctx.Point("vm.query")
	s, ok := v.spaces.Get(m.A)
	if !ok {
		ctx.ReplyErr(m.From, kernel.ESRCH)
		return
	}
	ctx.Reply(m.From, kernel.Message{A: s.Pages, B: v.used.Get()})
}

// AuditSpaceOwners returns the endpoints owning an address space, in
// table order. The consistency auditor cross-checks them against PM's
// process table.
func (v *VM) AuditSpaceOwners() []int64 {
	var out []int64
	v.spaces.ForEach(func(ep int64, _ space) bool {
		out = append(out, ep)
		return true
	})
	return out
}
