package boot

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/seep"
	"repro/internal/testsuite"
	"repro/internal/usr"
	"repro/internal/wire"
)

// The disk is shared page by page and block by block between a captured
// machine, its snapshot and every fork (DESIGN.md §7): nothing is copied
// at fork time, reads hand out the stored block itself and writes adopt
// the writer's buffer. What keeps that sound is fs.BlockDevice's
// aliasing contract. This test drives the one operation that could break
// it — a partial-block write, which reads a block, modifies it and
// writes it back — through every sharer at once.

const aliasFile = "/shared"

// aliasPristine is the file every sharer starts from: two full blocks.
func aliasPristine() []byte { return bytes.Repeat([]byte{'a'}, 2*fs.BlockSize) }

// aliasMutate reads the file (becoming an earlier reader of both
// blocks), overwrites a few bytes in the middle of each block with tag
// and returns what the file reads as afterwards.
func aliasMutate(p *usr.Proc, tag byte) []byte {
	fd, _ := p.Open(aliasFile, 0)
	before, _ := p.Read(fd, 2*fs.BlockSize)
	for _, off := range []int64{10, fs.BlockSize + 10} {
		p.LSeek(fd, off)
		p.Write(fd, bytes.Repeat([]byte{tag}, 16))
	}
	p.LSeek(fd, 0)
	after, _ := p.Read(fd, 2*fs.BlockSize)
	p.Close(fd)
	if !bytes.Equal(before, aliasPristine()) {
		return before // report the damage instead of the write's result
	}
	return after
}

// aliasWant is the file after aliasMutate(tag) on a pristine disk.
func aliasWant(tag byte) []byte {
	want := aliasPristine()
	for _, off := range []int{10, fs.BlockSize + 10} {
		copy(want[off:], bytes.Repeat([]byte{tag}, 16))
	}
	return want
}

func TestForkAliasingPartialWritesStayPrivate(t *testing.T) {
	opts := Options{Config: core.Config{Policy: seep.PolicyEnhanced, Seed: 1}}
	var pathfinderSaw []byte
	sys := Boot(opts, func(p *usr.Proc) int {
		fd, _ := p.Create(aliasFile)
		p.Write(fd, aliasPristine())
		p.Close(fd)
		p.Barrier()
		pathfinderSaw = aliasMutate(p, 'P')
		return 0
	})
	if !sys.Kernel().RunToBarrier(testLimit) {
		t.Fatal("pathfinder never reached its barrier")
	}
	snap, err := CaptureParked(sys, opts)
	if err != nil {
		t.Fatalf("CaptureParked: %v", err)
	}

	// The pathfinder keeps writing while eight forks of the one rung do
	// the same, all concurrently: under -race any in-place change of a
	// shared block, page or table is a reported race, and without it a
	// wrong byte below.
	const forks = 8
	saw := make([][]byte, forks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if res := sys.Run(testLimit); res.Outcome != kernel.OutcomeCompleted {
			t.Errorf("pathfinder: %v (%s)", res.Outcome, res.Reason)
		}
	}()
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forked, err := snap.Fork(ForkParams{Seed: uint64(i)}, func(p *usr.Proc) int {
				saw[i] = aliasMutate(p, byte('A'+i))
				return 0
			})
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			if res := forked.Run(testLimit); res.Outcome != kernel.OutcomeCompleted {
				t.Errorf("fork %d: %v (%s)", i, res.Outcome, res.Reason)
			}
		}(i)
	}
	wg.Wait()

	if !bytes.Equal(pathfinderSaw, aliasWant('P')) {
		t.Errorf("pathfinder's file is not pristine + its own write")
	}
	for i, got := range saw {
		if !bytes.Equal(got, aliasWant(byte('A'+i))) {
			t.Errorf("fork %d's file is not pristine + its own write", i)
		}
	}
	// And the snapshot still holds the pristine file.
	var late []byte
	forked, err := snap.Fork(ForkParams{Seed: 99}, func(p *usr.Proc) int {
		fd, _ := p.Open(aliasFile, 0)
		late, _ = p.Read(fd, 2*fs.BlockSize)
		return 0
	})
	if err != nil {
		t.Fatalf("late fork: %v", err)
	}
	forked.Run(testLimit)
	if !bytes.Equal(late, aliasPristine()) {
		t.Errorf("the snapshot's file changed under its forks")
	}
}

// A store's Slice pages and Maps are shared the same way (DESIGN.md §7):
// a capture and every fork copy a slice's page table and share its pages
// and every map, and the first write to a page or a map copies it. An
// inode's block table is shared with them, and a write installs a new
// one (fs.Inode).
// pageWriter writes both slices of the suite machine — VM's frame table,
// by growing and shrinking its address space and forking a child, and
// the filesystem's free-block stack, by writing a file and unlinking it
// — each by amounts of its own, and both of the filesystem's maps, by
// keeping a file of its own besides. It also adds a block to holeyFile,
// into the hole of the table the snapshot holds, after reading part of
// the snapshot's last block of it — a read the device lends (fs.ReadAt)
// — and appending to the result, which must copy.
func pageWriter(t *testing.T, tag int) usr.Program {
	return func(p *usr.Proc) int {
		fd, _ := p.Open(holeyFile, 0)
		p.LSeek(fd, 2*fs.BlockSize+1)
		lent, _ := p.Read(fd, 3)
		_ = append(lent, byte('A'+tag))
		p.LSeek(fd, 2*fs.BlockSize+1)
		if again, _ := p.Read(fd, 4); string(again) != "hird" {
			t.Errorf("fork %d: after an append to a lent read, %s reads %q at %d, want \"hird\"", tag, holeyFile, again, 2*fs.BlockSize+1)
		}
		p.LSeek(fd, fs.BlockSize+int64(tag))
		p.Write(fd, []byte{byte('A' + tag)})
		p.Close(fd)
		p.Brk(int64(8 + 4*tag))
		p.Brk(-int64(2 + tag))
		if _, errno := p.Fork(func(*usr.Proc) int { return 0 }); errno == kernel.OK {
			p.Wait()
		}
		name := fmt.Sprintf("/pages%d", tag)
		fd, _ = p.Create(name)
		p.Write(fd, make([]byte, (tag+2)*fs.BlockSize))
		p.Close(fd)
		p.Unlink(name)
		fd, _ = p.Create(fmt.Sprintf("/kept%d", tag))
		p.Close(fd)
		return 0
	}
}

// holeyFile is a file of the suite machine of TestForkStoresStayPrivate
// with a hole in its block table: a block, a hole, a block.
const holeyFile = "/holey"

// holeyInit writes holeyFile and runs the suite.
func holeyInit(report *testsuite.Report) usr.Program {
	return func(p *usr.Proc) int {
		fd, _ := p.Create(holeyFile)
		p.Write(fd, []byte("first"))
		p.LSeek(fd, 2*fs.BlockSize)
		p.Write(fd, []byte("third"))
		p.Close(fd)
		return testsuite.RunnerInit(report)(p)
	}
}

// holeyTable returns holeyFile's block table in a machine's VFS store.
func holeyTable(t *testing.T, vfsStore *memlog.Store) []int32 {
	t.Helper()
	inodes, dirents := mapsOf(vfsStore)
	ino, ok := dirents.Get(fmt.Sprintf("%d%s", fs.RootIno, holeyFile))
	node, _ := inodes.Get(ino)
	if !ok || len(node.Blocks) != 3 {
		t.Errorf("%s holds table %v, want three slots", holeyFile, node.Blocks)
		return make([]int32, 3)
	}
	return node.Blocks
}

// storeBytes is the image of st.
func storeBytes(t *testing.T, st *memlog.Store) []byte {
	t.Helper()
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	if memlog.CodeImage(c, &st); c.Err() != nil {
		t.Errorf("encode store %q: %v", st.Label(), c.Err())
	}
	return e.Bytes()
}

// slicesOf returns the two paged containers of a machine's VM and VFS
// stores.
func slicesOf(vmStore, vfsStore *memlog.Store) [2]*memlog.Slice[int32] {
	return [2]*memlog.Slice[int32]{
		memlog.NewSlice[int32](vmStore, "vm.frames"),
		memlog.NewSlice[int32](vfsStore, "fs.free_blocks"),
	}
}

// mapsOf returns the two maps of a machine's VFS store.
func mapsOf(vfsStore *memlog.Store) (*memlog.Map[int64, fs.Inode], *memlog.Map[string, int64]) {
	return memlog.NewMap[int64, fs.Inode](vfsStore, "fs.inodes"), memlog.NewMap[string, int64](vfsStore, "fs.dirents")
}

func sameElements(a, b *memlog.Slice[int32]) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != b.Get(i) {
			return false
		}
	}
	return true
}

// Forks write their own pages and maps while the pathfinder goes on,
// capturing every later rung. In the second case the forks come from
// three consecutive captures of one machine, which share the container
// copies and the stores nothing wrote in between, and the contents of
// those written back to what they were (memlog.Store.Capture), and their
// process entries (kernel CaptureImage); the forks of all three write a
// copy the three share, and the pathfinder's later captures take it up
// again.
func TestForkStoresStayPrivate(t *testing.T) {
	t.Run("one-rung", func(t *testing.T) { forkStoresStayPrivate(t, 1) })
	t.Run("consecutive-rungs", func(t *testing.T) { forkStoresStayPrivate(t, 3) })
}

// forkStoresStayPrivate captures rungs consecutive rungs from barrier 30
// on and forks each of them four times.
func forkStoresStayPrivate(t *testing.T, rungs int) {
	opts := suiteOpts(1)
	var report testsuite.Report
	sys := Boot(opts, holeyInit(&report))
	defer sys.Shutdown("done")
	var snaps []*Snapshot
	for i := 0; len(snaps) < rungs; i++ {
		if !sys.Kernel().RunToBarrier(testLimit) {
			t.Fatalf("suite ended before barrier %d", i)
		}
		if i < 29 {
			continue
		}
		snap, err := CaptureParked(sys, opts)
		if err != nil {
			t.Fatalf("CaptureParked at barrier %d: %v", i, err)
		}
		snaps = append(snaps, snap)
	}
	eps := []kernel.Endpoint{kernel.EpVM, kernel.EpVFS}
	snapStores := make([]map[kernel.Endpoint]*memlog.Store, rungs)
	before := make([]map[kernel.Endpoint][]byte, rungs)
	machines := make([][]byte, rungs)
	for r, snap := range snaps {
		snapStores[r], before[r] = map[kernel.Endpoint]*memlog.Store{}, map[kernel.Endpoint][]byte{}
		for _, s := range snap.Image.Slots {
			snapStores[r][s.EP] = s.Store
			before[r][s.EP] = storeBytes(t, s.Store)
		}
		machines[r] = machineBytes(t, snap.Image.Machine)
	}
	if rungs > 1 && !shareContents(snaps) {
		t.Fatal("the consecutive captures do not share the contents of VM's and VFS's paged containers and maps: the case tests less than it says")
	}

	// All concurrently: under -race an in-place write to a page, map or
	// process entry another of them reads is a reported race, and without
	// it a changed encoding below.
	const forks = 8
	systems := make([]*System, forks)
	after := make([]map[kernel.Endpoint][]byte, forks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sys.Kernel().RunToBarrier(testLimit) {
			CaptureParked(sys, opts) // a refusal is a rung the ladder does not hold
		}
		if res := sys.Kernel().StepResult(); res.Outcome != kernel.OutcomeCompleted {
			t.Errorf("pathfinder: %v (%s)", res.Outcome, res.Reason)
		}
	}()
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forked, err := snaps[i%rungs].Fork(ForkParams{Seed: uint64(i)}, pageWriter(t, i))
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			if res := forked.Run(testLimit); res.Outcome != kernel.OutcomeCompleted {
				t.Errorf("fork %d: %v (%s)", i, res.Outcome, res.Reason)
			}
			snapStore := snapStores[i%rungs]
			snapSlices := slicesOf(snapStore[kernel.EpVM], snapStore[kernel.EpVFS])
			own := slicesOf(forked.OS.ComponentStore(kernel.EpVM), forked.OS.ComponentStore(kernel.EpVFS))
			for k, sl := range own {
				if sameElements(sl, snapSlices[k]) {
					t.Errorf("fork %d did not write its slice %d", i, k)
				}
			}
			if holeyTable(t, forked.OS.ComponentStore(kernel.EpVFS))[1] == 0 {
				t.Errorf("fork %d did not fill the hole of %s", i, holeyFile)
			}
			snapInodes, snapDirents := mapsOf(snapStore[kernel.EpVFS])
			inodes, dirents := mapsOf(forked.OS.ComponentStore(kernel.EpVFS))
			if inodes.Len() != snapInodes.Len()+1 || dirents.Len() != snapDirents.Len()+1 {
				t.Errorf("fork %d holds %d inodes and %d dirents, the snapshot %d and %d: want one file more", i, inodes.Len(), dirents.Len(), snapInodes.Len(), snapDirents.Len())
			}
			after[i] = map[kernel.Endpoint][]byte{}
			for _, ep := range eps {
				after[i][ep] = storeBytes(t, forked.OS.ComponentStore(ep))
			}
			systems[i] = forked
		}(i)
	}
	wg.Wait()

	for r, snap := range snaps {
		if holeyTable(t, snapStores[r][kernel.EpVFS])[1] != 0 {
			t.Errorf("a fork's block landed in rung %d's table of %s", r, holeyFile)
		}
		for _, s := range snap.Image.Slots {
			if !bytes.Equal(storeBytes(t, s.Store), before[r][s.EP]) {
				t.Errorf("rung %d's store %d changed under its forks and the pathfinder", r, s.EP)
			}
		}
		if !bytes.Equal(machineBytes(t, snap.Image.Machine), machines[r]) {
			t.Errorf("rung %d's kernel image changed under its forks and the pathfinder", r)
		}
	}
	for i, forked := range systems {
		if forked == nil {
			continue
		}
		for _, ep := range eps {
			if !bytes.Equal(storeBytes(t, forked.OS.ComponentStore(ep)), after[i][ep]) {
				t.Errorf("fork %d's store %d changed after it stopped: a sibling wrote its pages or maps", i, ep)
			}
		}
		forked.Shutdown("checked")
	}
}

// shareContents reports whether every one of snaps holds the same
// contents, by identity, of each paged container and map of VM's and
// VFS's stores — the same first page of a slice, the same Go map — as the
// pathfinder's writes between them leave those as they were.
func shareContents(snaps []*Snapshot) bool {
	for _, snap := range snaps[1:] {
		if contentsOf(snap) != contentsOf(snaps[0]) {
			return false
		}
	}
	return true
}

// contentsOf names the contents of the two paged containers and the two
// maps of a snapshot's VM and VFS stores: a slice's first page, a map's
// Go map, read through reflect (which reads the unexported field and
// writes nothing).
func contentsOf(s *Snapshot) [4]uintptr {
	store := func(ep kernel.Endpoint) *memlog.Store {
		for _, si := range s.Image.Slots {
			if si.EP == ep {
				return si.Store
			}
		}
		return nil
	}
	var out [4]uintptr
	for k, sl := range slicesOf(store(kernel.EpVM), store(kernel.EpVFS)) {
		if sl.Len() > 0 {
			out[k] = uintptr(unsafe.Pointer(&sl.PageFrom(0)[0]))
		}
	}
	inodes, dirents := mapsOf(store(kernel.EpVFS))
	out[2] = reflect.ValueOf(inodes).Elem().FieldByName("m").Pointer()
	out[3] = reflect.ValueOf(dirents).Elem().FieldByName("m").Pointer()
	return out
}

// machineBytes is the encoding of a kernel image.
func machineBytes(t *testing.T, img *kernel.MachineImage) []byte {
	t.Helper()
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	if img.Code(c); c.Err() != nil {
		t.Errorf("encode kernel image: %v", c.Err())
	}
	return e.Bytes()
}
