package fs

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/memlog"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func newTestFS() (*FS, *memlog.Store, *MemDevice) {
	store := memlog.NewStore("vfs", memlog.Optimized)
	return New(store, 256), store, NewMemDevice(256)
}

func TestFormatCreatesRoot(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	ino, errno := f.Lookup("/")
	if errno != kernel.OK || ino != RootIno {
		t.Fatalf("Lookup(/) = %d, %v", ino, errno)
	}
	node, errno := f.Stat(RootIno)
	if errno != kernel.OK || node.Type != TypeDir {
		t.Fatalf("Stat(root) = %+v, %v", node, errno)
	}
}

func TestCreateLookupUnlink(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	ino, errno := f.Create("/hello")
	if errno != kernel.OK {
		t.Fatalf("Create = %v", errno)
	}
	got, errno := f.Lookup("/hello")
	if errno != kernel.OK || got != ino {
		t.Fatalf("Lookup = %d, %v; want %d", got, errno, ino)
	}
	if _, errno := f.Create("/hello"); errno != kernel.EEXIST {
		t.Fatalf("duplicate Create = %v, want EEXIST", errno)
	}
	if errno := f.Unlink("/hello"); errno != kernel.OK {
		t.Fatalf("Unlink = %v", errno)
	}
	if _, errno := f.Lookup("/hello"); errno != kernel.ENOENT {
		t.Fatalf("Lookup after unlink = %v, want ENOENT", errno)
	}
}

func TestMkdirHierarchy(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	if _, errno := f.Mkdir("/a"); errno != kernel.OK {
		t.Fatalf("Mkdir(/a) = %v", errno)
	}
	if _, errno := f.Mkdir("/a/b"); errno != kernel.OK {
		t.Fatalf("Mkdir(/a/b) = %v", errno)
	}
	if _, errno := f.Create("/a/b/f"); errno != kernel.OK {
		t.Fatalf("Create(/a/b/f) = %v", errno)
	}
	if _, errno := f.Lookup("/a/b/f"); errno != kernel.OK {
		t.Fatalf("Lookup(/a/b/f) = %v", errno)
	}
	if _, errno := f.Create("/missing/f"); errno != kernel.ENOENT {
		t.Fatalf("Create under missing dir = %v, want ENOENT", errno)
	}
	if _, errno := f.Lookup("/a/b/f/x"); errno != kernel.ENOTDIR {
		t.Fatalf("Lookup through file = %v, want ENOTDIR", errno)
	}
}

func TestUnlinkNonEmptyDirRefused(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	f.Mkdir("/d")
	f.Create("/d/f")
	if errno := f.Unlink("/d"); errno != kernel.EINVAL {
		t.Fatalf("Unlink(non-empty dir) = %v, want EINVAL", errno)
	}
	f.Unlink("/d/f")
	if errno := f.Unlink("/d"); errno != kernel.OK {
		t.Fatalf("Unlink(empty dir) = %v", errno)
	}
}

func TestReadDir(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	f.Create("/x")
	f.Mkdir("/sub")
	f.Create("/sub/y")
	names, errno := f.ReadDir("/")
	if errno != kernel.OK {
		t.Fatalf("ReadDir = %v", errno)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "sub" || names[1] != "x" {
		t.Fatalf("ReadDir(/) = %v", names)
	}
}

func TestWriteRead(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	ino, _ := f.Create("/data")
	payload := bytes.Repeat([]byte("osiris"), 1000) // 6000 bytes, crosses blocks
	n, errno := f.WriteAt(dev, ino, 0, payload)
	if errno != kernel.OK || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, errno)
	}
	got, errno := f.ReadAt(dev, ino, 0, len(payload))
	if errno != kernel.OK || !bytes.Equal(got, payload) {
		t.Fatalf("ReadAt returned %d bytes, errno %v", len(got), errno)
	}
	node, _ := f.Stat(ino)
	if node.Size != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", node.Size, len(payload))
	}
}

func TestPartialAndOffsetIO(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	ino, _ := f.Create("/data")
	f.WriteAt(dev, ino, 0, []byte("hello world"))
	f.WriteAt(dev, ino, 6, []byte("osiris"))
	got, _ := f.ReadAt(dev, ino, 0, 100)
	if string(got) != "hello osiris" {
		t.Fatalf("content = %q", got)
	}
	mid, _ := f.ReadAt(dev, ino, 6, 3)
	if string(mid) != "osi" {
		t.Fatalf("offset read = %q", mid)
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	ino, _ := f.Create("/sparse")
	f.WriteAt(dev, ino, 2*BlockSize, []byte("tail"))
	got, errno := f.ReadAt(dev, ino, 0, BlockSize)
	if errno != kernel.OK {
		t.Fatalf("ReadAt = %v", errno)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("sparse hole not zero-filled")
		}
	}
}

func TestReadAtEOF(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, []byte("ab"))
	got, errno := f.ReadAt(dev, ino, 2, 10)
	if errno != kernel.OK || len(got) != 0 {
		t.Fatalf("read at EOF = %d bytes, %v", len(got), errno)
	}
}

func TestFileSizeLimit(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	ino, _ := f.Create("/big")
	_, errno := f.WriteAt(dev, ino, int64(NDirect*BlockSize)-1, []byte("xy"))
	if errno != kernel.ENOSPC {
		t.Fatalf("write past max size = %v, want ENOSPC", errno)
	}
}

func TestTruncateFreesBlocks(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	free0 := f.FreeBlockCount()
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, make([]byte, 3*BlockSize))
	if f.FreeBlockCount() != free0-3 {
		t.Fatalf("free blocks = %d, want %d", f.FreeBlockCount(), free0-3)
	}
	if errno := f.Truncate(ino); errno != kernel.OK {
		t.Fatalf("Truncate = %v", errno)
	}
	if f.FreeBlockCount() != free0 {
		t.Fatalf("free blocks after truncate = %d, want %d", f.FreeBlockCount(), free0)
	}
	node, _ := f.Stat(ino)
	if node.Size != 0 {
		t.Fatalf("Size after truncate = %d", node.Size)
	}
}

func TestUnlinkFreesBlocks(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	free0 := f.FreeBlockCount()
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, make([]byte, 2*BlockSize))
	f.Unlink("/f")
	if f.FreeBlockCount() != free0 {
		t.Fatalf("free blocks after unlink = %d, want %d", f.FreeBlockCount(), free0)
	}
	if _, errno := f.ReadAt(dev, ino, 0, 1); errno != kernel.ENOENT {
		t.Fatalf("read of unlinked inode = %v, want ENOENT", errno)
	}
}

func TestOutOfSpace(t *testing.T) {
	store := memlog.NewStore("vfs", memlog.Baseline)
	f := New(store, 4) // blocks 1..3 usable
	dev := NewMemDevice(4)
	ino, _ := f.Create("/f")
	n, errno := f.WriteAt(dev, ino, 0, make([]byte, 10*BlockSize))
	if errno != kernel.ENOSPC {
		t.Fatalf("errno = %v, want ENOSPC", errno)
	}
	if n != 3*BlockSize {
		t.Fatalf("wrote %d, want %d", n, 3*BlockSize)
	}
	if node, _ := f.Stat(ino); node.Size != int64(n) {
		t.Fatalf("size %d after %d bytes reported written", node.Size, n)
	}
}

// failingDevice is a MemDevice whose failAt-th call (ReadBlock or
// WriteBlock, counted from one) fails with EIO.
type failingDevice struct {
	*MemDevice
	calls, failAt int
}

func (d *failingDevice) fails() bool {
	d.calls++
	return d.calls == d.failAt
}

func (d *failingDevice) ReadBlock(b int32) ([]byte, kernel.Errno) {
	if d.fails() {
		return nil, kernel.EIO
	}
	return d.MemDevice.ReadBlock(b)
}

func (d *failingDevice) WriteBlock(b int32, data []byte) kernel.Errno {
	if d.fails() {
		return kernel.EIO
	}
	return d.MemDevice.WriteBlock(b, data)
}

// A device error in the middle of a write keeps what came before it: the
// blocks the write filled stay the file's, the one the failed chunk took
// goes back (none drops out of the free stack unowned), and the size
// covers every byte reported written.
func TestWriteAtDeviceErrorKeepsBlockAccounting(t *testing.T) {
	const blocks, off = 16, 100
	data := bytes.Repeat([]byte{'w'}, 3*BlockSize) // partial head, two full blocks, partial tail
	for failAt := 1; ; failAt++ {
		f := New(memlog.NewStore("vfs", memlog.Baseline), blocks)
		dev := &failingDevice{MemDevice: NewMemDevice(blocks), failAt: failAt}
		ino, _ := f.Create("/f")
		n, errno := f.WriteAt(dev, ino, off, data)
		if errno == kernel.OK {
			if failAt == 1 {
				t.Fatal("the write made no device call")
			}
			return // failAt is past the last call
		}
		node, _ := f.Stat(ino)
		used := 0
		for _, b := range node.Blocks {
			if b != 0 {
				used++
			}
		}
		if used+f.FreeBlockCount() != blocks-1 { // block 0 is reserved
			t.Fatalf("call %d fails: %d used + %d free blocks, want %d", failAt, used, f.FreeBlockCount(), blocks-1)
		}
		if n > 0 && node.Size < off+int64(n) {
			t.Fatalf("call %d fails: %d bytes reported written at %d, size %d", failAt, n, off, node.Size)
		}
		if got, _ := f.ReadAt(dev, ino, off, n); !bytes.Equal(got, data[:n]) {
			t.Fatalf("call %d fails: the %d bytes reported written read back wrong", failAt, n)
		}
	}
}

// A write past the end of the file whose first chunk fails writes
// nothing, so it leaves the file as it was: the size does not grow to
// the offset, and a block taken for the chunk goes back to the free
// stack. The chunk fails in its read or its write, inside the file's
// last block or in a hole past it.
func TestWriteAtFailedFirstChunkLeavesFile(t *testing.T) {
	const blocks = 16
	for _, off := range []int64{100, 2*BlockSize + 5} {
		for failAt := 1; failAt <= 2; failAt++ {
			f := New(memlog.NewStore("vfs", memlog.Baseline), blocks)
			mem := NewMemDevice(blocks)
			ino, _ := f.Create("/f")
			f.WriteAt(mem, ino, 0, []byte("ten bytes!"))
			before, _ := f.Stat(ino)
			free := f.FreeBlockCount()
			dev := &failingDevice{MemDevice: mem, failAt: failAt}
			n, errno := f.WriteAt(dev, ino, off, []byte("past the end"))
			if errno != kernel.EIO || n != 0 {
				t.Fatalf("off %d, call %d fails: wrote %d, %v; want 0, EIO", off, failAt, n, errno)
			}
			if node, _ := f.Stat(ino); node.Size != before.Size || !slices.Equal(node.Blocks, before.Blocks) {
				t.Errorf("off %d, call %d fails: size %d, blocks %v; want %d, %v",
					off, failAt, node.Size, node.Blocks, before.Size, before.Blocks)
			}
			if f.FreeBlockCount() != free {
				t.Errorf("off %d, call %d fails: %d free blocks, want %d", off, failAt, f.FreeBlockCount(), free)
			}
		}
	}
}

// A write past the end of the file on a full disk writes nothing and
// leaves the file as it was.
func TestWriteAtFullDiskLeavesFile(t *testing.T) {
	f := New(memlog.NewStore("vfs", memlog.Baseline), 4) // blocks 1..3 usable
	dev := NewMemDevice(4)
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, []byte("ten bytes!"))
	fill, _ := f.Create("/fill")
	f.WriteAt(dev, fill, 0, make([]byte, 2*BlockSize))
	if f.FreeBlockCount() != 0 {
		t.Fatalf("%d blocks free after filling the disk", f.FreeBlockCount())
	}
	before, _ := f.Stat(ino)
	n, errno := f.WriteAt(dev, ino, 3*BlockSize, []byte("past the end"))
	if errno != kernel.ENOSPC || n != 0 {
		t.Fatalf("wrote %d, %v; want 0, ENOSPC", n, errno)
	}
	if node, _ := f.Stat(ino); node.Size != before.Size || !slices.Equal(node.Blocks, before.Blocks) {
		t.Errorf("size %d, blocks %v; want %d, %v", node.Size, node.Blocks, before.Size, before.Blocks)
	}
}

func TestPathValidation(t *testing.T) {
	f, _, dev := newTestFS()
	_ = dev
	if _, errno := f.Lookup("relative"); errno != kernel.EINVAL {
		t.Fatalf("relative path = %v, want EINVAL", errno)
	}
	if _, errno := f.Lookup(""); errno != kernel.EINVAL {
		t.Fatalf("empty path = %v, want EINVAL", errno)
	}
	// Dot and dot-dot are normalized.
	f.Mkdir("/a")
	f.Create("/a/f")
	if _, errno := f.Lookup("/a/./f"); errno != kernel.OK {
		t.Fatalf("dot path = %v", errno)
	}
	if _, errno := f.Lookup("/a/../a/f"); errno != kernel.OK {
		t.Fatalf("dotdot path = %v", errno)
	}
	if _, errno := f.Lookup("/../a/f"); errno != kernel.OK {
		t.Fatalf("dotdot above root = %v", errno)
	}
}

// walkPath visits exactly the components splitPath normalizes a path
// into, in order and with the last one marked, and fails where it fails:
// in place on a plain path, through splitPath on any other.
func TestWalkPathMatchesSplitPath(t *testing.T) {
	for _, path := range []string{
		"/", "//a", "/a/", "/a/./b", "/a/../b", "/..", "a", "",
		"/a", "/a/b/c", "/.a/b..", "/a//b", "/a/b/..", "/./a", "/...",
	} {
		want, wantErrno := splitPath(path)
		var got []string
		errno := walkPath(path, func(c string, last bool) kernel.Errno {
			got = append(got, c)
			if last != (len(got) == len(want)) {
				t.Errorf("%q: component %d (%q) last = %v", path, len(got)-1, c, last)
			}
			return kernel.OK
		})
		if errno != wantErrno || !slices.Equal(got, want) {
			t.Errorf("%q: walk visits %q (%v), splitPath gives %q (%v)", path, got, errno, want, wantErrno)
		}
		if plainPath(path) && len(want) != len(strings.Split(path, "/"))-1 {
			t.Errorf("%q: called plain, but splitPath drops components", path)
		}
		visited := 0
		if errno := walkPath(path, func(string, bool) kernel.Errno {
			visited++
			return kernel.ENOENT
		}); len(want) > 0 && (errno != kernel.ENOENT || visited != 1) {
			t.Errorf("%q: a failing step returns %v after %d steps, want ENOENT after 1", path, errno, visited)
		}
	}
}

func TestMetadataRollback(t *testing.T) {
	// A VFS crash inside a recovery window must roll metadata back: the
	// half-created file disappears and its blocks are free again.
	store := memlog.NewStore("vfs", memlog.Optimized)
	f := New(store, 64)
	dev := NewMemDevice(64)
	f.Create("/stable")
	free0 := f.FreeBlockCount()

	store.SetLogging(true)
	store.Checkpoint()
	ino, _ := f.Create("/doomed")
	f.WriteAt(dev, ino, 0, make([]byte, 2*BlockSize))
	store.Rollback()

	if _, errno := f.Lookup("/doomed"); errno != kernel.ENOENT {
		t.Fatalf("rolled-back file still present: %v", errno)
	}
	if _, errno := f.Lookup("/stable"); errno != kernel.OK {
		t.Fatalf("pre-checkpoint file lost: %v", errno)
	}
	if f.FreeBlockCount() != free0 {
		t.Fatalf("free blocks = %d, want %d after rollback", f.FreeBlockCount(), free0)
	}
}

func TestRemountOnClonedStoreKeepsData(t *testing.T) {
	store := memlog.NewStore("vfs", memlog.Optimized)
	dev := NewMemDevice(64)
	f := New(store, 64)
	ino, _ := f.Create("/persist")
	f.WriteAt(dev, ino, 0, []byte("survives recovery"))

	clone := store.Clone()
	f2 := New(clone, 64) // must NOT re-format
	got, errno := f2.ReadAt(dev, ino, 0, 64)
	if errno != kernel.OK || string(got) != "survives recovery" {
		t.Fatalf("after remount: %q, %v", got, errno)
	}
}

// TestPropertyBlockAccounting: for any sequence of create/write/unlink
// operations, allocated + free block counts always equal the initial
// free count, and all live file contents stay readable.
func TestPropertyBlockAccounting(t *testing.T) {
	fn := func(seed uint64, opsRaw uint8) bool {
		r := sim.NewRNG(seed)
		store := memlog.NewStore("vfs", memlog.Baseline)
		f := New(store, 128)
		dev := NewMemDevice(128)
		initial := f.FreeBlockCount()
		live := make(map[string]int64)
		names := []string{"/f0", "/f1", "/f2", "/f3"}

		ops := int(opsRaw)%60 + 10
		for i := 0; i < ops; i++ {
			name := names[r.Intn(len(names))]
			switch r.Intn(3) {
			case 0:
				if ino, errno := f.Create(name); errno == kernel.OK {
					live[name] = ino
				}
			case 1:
				if ino, ok := live[name]; ok {
					f.WriteAt(dev, ino, int64(r.Intn(3*BlockSize)), make([]byte, r.Intn(2*BlockSize)))
				}
			case 2:
				if errno := f.Unlink(name); errno == kernel.OK {
					delete(live, name)
				}
			}
		}
		allocated := 0
		for _, ino := range live {
			node, errno := f.Stat(ino)
			if errno != kernel.OK {
				return false
			}
			for _, b := range node.Blocks {
				if b != 0 {
					allocated++
				}
			}
		}
		return allocated+f.FreeBlockCount() == initial
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRenameBasic(t *testing.T) {
	f, _, dev := newTestFS()
	ino, _ := f.Create("/old")
	f.WriteAt(dev, ino, 0, []byte("payload"))
	if errno := f.Rename("/old", "/new"); errno != kernel.OK {
		t.Fatalf("Rename = %v", errno)
	}
	if _, errno := f.Lookup("/old"); errno != kernel.ENOENT {
		t.Fatalf("old path survives: %v", errno)
	}
	got, errno := f.ReadAt(dev, ino, 0, 16)
	if errno != kernel.OK || string(got) != "payload" {
		t.Fatalf("content after rename: %q %v", got, errno)
	}
	if newIno, _ := f.Lookup("/new"); newIno != ino {
		t.Fatalf("inode changed across rename")
	}
}

func TestRenameReplacesFile(t *testing.T) {
	f, _, dev := newTestFS()
	free0 := f.FreeBlockCount()
	src, _ := f.Create("/src")
	f.WriteAt(dev, src, 0, []byte("s"))
	dst, _ := f.Create("/dst")
	f.WriteAt(dev, dst, 0, make([]byte, 2*BlockSize))
	if errno := f.Rename("/src", "/dst"); errno != kernel.OK {
		t.Fatalf("Rename = %v", errno)
	}
	// The replaced file's blocks are freed; only /dst's one block lives.
	if f.FreeBlockCount() != free0-1 {
		t.Fatalf("free blocks = %d, want %d", f.FreeBlockCount(), free0-1)
	}
	if ino, _ := f.Lookup("/dst"); ino != src {
		t.Fatal("destination not replaced by source inode")
	}
}

func TestRenameAcrossDirsAndErrors(t *testing.T) {
	f, _, _ := newTestFS()
	f.Mkdir("/a")
	f.Mkdir("/b")
	f.Create("/a/f")
	if errno := f.Rename("/a/f", "/b/g"); errno != kernel.OK {
		t.Fatalf("cross-dir rename = %v", errno)
	}
	if _, errno := f.Lookup("/b/g"); errno != kernel.OK {
		t.Fatalf("moved file missing: %v", errno)
	}
	if errno := f.Rename("/missing", "/x"); errno != kernel.ENOENT {
		t.Fatalf("rename missing = %v", errno)
	}
	if errno := f.Rename("/b/g", "/a"); errno != kernel.EISDIR {
		t.Fatalf("rename onto dir = %v, want EISDIR", errno)
	}
	// Renaming a path to itself is a no-op.
	if errno := f.Rename("/b/g", "/b/g"); errno != kernel.OK {
		t.Fatalf("self rename = %v", errno)
	}
	// Moving a directory between parents updates link counts.
	f.Mkdir("/a/sub")
	aBefore, _ := f.Stat(mustLookup(t, f, "/a"))
	if errno := f.Rename("/a/sub", "/b/sub"); errno != kernel.OK {
		t.Fatalf("dir rename = %v", errno)
	}
	aAfter, _ := f.Stat(mustLookup(t, f, "/a"))
	if aAfter.Nlink != aBefore.Nlink-1 {
		t.Fatalf("source parent nlink %d -> %d, want decrement", aBefore.Nlink, aAfter.Nlink)
	}
}

func mustLookup(t *testing.T, f *FS, path string) int64 {
	t.Helper()
	ino, errno := f.Lookup(path)
	if errno != kernel.OK {
		t.Fatalf("Lookup(%s) = %v", path, errno)
	}
	return ino
}

// inodeV1 is the inode of image format v1, which the field list keeps:
// its fields in that order and the whole table, a slot a block. Its own
// list is the one Inode had before the table became a prefix.
type inodeV1 struct {
	Ino    int64
	Type   FileType
	Size   int64
	Nlink  int32
	Blocks [NDirect]int32
}

func (m *inodeV1) Code(c *wire.Codec) {
	wire.Int(c, &m.Ino)
	wire.Int(c, &m.Type)
	wire.Int(c, &m.Size)
	wire.Int(c, &m.Nlink)
	wire.Ints(c, m.Blocks[:])
}

// inode is m as the filesystem holds it: the table cut after its last
// allocated slot.
func (m inodeV1) inode() Inode {
	n := Inode{Ino: m.Ino, Type: m.Type, Size: m.Size, Nlink: m.Nlink}
	k := NDirect
	for k > 0 && m.Blocks[k-1] == 0 {
		k--
	}
	if k > 0 {
		n.Blocks = append([]int32(nil), m.Blocks[:k]...)
	}
	return n
}

// The inode's field list against format v1, the reflective walk of
// inodeV1: for every table — holes, a zero tail of any length, none, a
// full one — the same bytes and the same hash as the whole table, also
// from a table that carries zero slots past its last block; and back to
// the canonical prefix. Hashed, every field counts.
func TestInodeFieldList(t *testing.T) {
	wiretest.SameAsValue(t, wiretest.Random[inodeV1])
	wiretest.HashCovers[Inode](t)

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
	r := rand.New(rand.NewSource(39))
	for i := 0; i < 300; i++ {
		v1 := wiretest.Random[inodeV1](r)
		tail := r.Intn(NDirect + 1)
		for j := range v1.Blocks {
			if j >= NDirect-tail || r.Intn(4) == 0 {
				v1.Blocks[j] = 0
			}
		}
		node := v1.inode()
		padded := node
		padded.Blocks = append(append([]int32(nil), node.Blocks...), make([]int32, r.Intn(NDirect-len(node.Blocks)+1))...)
		want := encode(func(c *wire.Codec) { wire.Elem(c, &v1) })
		wantHash := hash(func(c *wire.Codec) { wire.Elem(c, &v1) })
		for _, n := range []Inode{node, padded} {
			if got := encode(func(c *wire.Codec) { wire.Elem(c, &n) }); !bytes.Equal(got, want) {
				t.Fatalf("%+v codes as %x, its v1 layout as %x", n, got, want)
			}
			if got := hash(func(c *wire.Codec) { wire.Elem(c, &n) }); got != wantHash {
				t.Fatalf("%+v hashes apart from its v1 layout", n)
			}
		}
		var back Inode
		d := wire.NewDecoder(want)
		if wire.Elem(wire.Decoding(d), &back); d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("decode of %x: %v, %d bytes left", want, d.Err(), d.Remaining())
		}
		if !reflect.DeepEqual(back, node) || cap(back.Blocks) != len(back.Blocks) {
			t.Fatalf("%x decodes as %+v (capacity %d), want %+v", want, back, cap(back.Blocks), node)
		}
	}
	long := Inode{Blocks: make([]int32, NDirect+1)}
	c := wire.Encoding(wire.NewEncoder())
	if wire.Elem(c, &long); c.Err() == nil {
		t.Fatal("a table longer than NDirect encodes")
	}
}

// The block table is shared with the undo log (and, in the machine, with
// a snapshot and its forks): a write that fills a hole or grows the file
// installs a new table, so a rollback restores the old table and with it
// the old bytes. A table written in place would hand the rolled-back
// inode the new blocks.
func TestBlockTableNotWrittenInPlace(t *testing.T) {
	f, store, dev := newTestFS()
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, []byte("head"))
	f.WriteAt(dev, ino, 2*BlockSize, []byte("tail")) // slot 1 is a hole
	old, _ := f.Stat(ino)
	oldTable := append([]int32(nil), old.Blocks...)
	oldBytes, _ := f.ReadAt(dev, ino, 0, int(old.Size))
	if len(oldTable) != 3 || oldTable[1] != 0 || cap(old.Blocks) != len(old.Blocks) {
		t.Fatalf("table %v (capacity %d), want three slots, a hole in the middle", old.Blocks, cap(old.Blocks))
	}

	store.SetLogging(true)
	store.Checkpoint()
	f.WriteAt(dev, ino, BlockSize+5, []byte("fills the hole"))
	f.WriteAt(dev, ino, 5*BlockSize, []byte("grows"))
	if now, _ := f.Stat(ino); now.Blocks[1] == 0 || len(now.Blocks) != 6 {
		t.Fatalf("the writes left table %v", now.Blocks)
	}
	store.Rollback()

	back, _ := f.Stat(ino)
	if !slices.Equal(back.Blocks, oldTable) || back.Size != old.Size {
		t.Fatalf("rolled back to table %v, size %d; want %v, %d", back.Blocks, back.Size, oldTable, old.Size)
	}
	if got, _ := f.ReadAt(dev, ino, 0, int(old.Size)); !bytes.Equal(got, oldBytes) {
		t.Fatal("the rolled-back file reads other bytes than before the writes")
	}
}

// The table ends at its last allocated slot: a write that runs out of
// blocks part way keeps the blocks it got and no zero slot after them.
func TestBlockTableStaysCanonical(t *testing.T) {
	f := New(memlog.NewStore("vfs", memlog.Baseline), 4) // three usable blocks
	dev := NewMemDevice(4)
	ino, _ := f.Create("/f")
	n, errno := f.WriteAt(dev, ino, BlockSize, make([]byte, 5*BlockSize))
	node, _ := f.Stat(ino)
	if errno != kernel.ENOSPC || n != 3*BlockSize {
		t.Fatalf("WriteAt = %d, %v; want %d, ENOSPC", n, errno, 3*BlockSize)
	}
	if len(node.Blocks) != 4 || node.Blocks[0] != 0 || node.Blocks[3] == 0 || cap(node.Blocks) != 4 {
		t.Fatalf("table %v (capacity %d), want a hole and three blocks", node.Blocks, cap(node.Blocks))
	}
	if f.Truncate(ino); f.FreeBlockCount() != 3 {
		t.Fatalf("%d blocks free after truncate, want 3", f.FreeBlockCount())
	}
	if node, _ = f.Stat(ino); node.Blocks != nil {
		t.Fatalf("a truncated file keeps table %v", node.Blocks)
	}
}

func TestReadAtNegativeOffset(t *testing.T) {
	f, _, dev := newTestFS()
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, []byte("data"))
	if got, errno := f.ReadAt(dev, ino, -3, 5); errno != kernel.EINVAL || got != nil {
		t.Fatalf("ReadAt(-3) = %q, %v; want EINVAL", got, errno)
	}
}

// POSIX: a zero-length write to a regular file has no other effect — in
// particular, past the end it does not grow the file.
func TestZeroLengthWriteKeepsSize(t *testing.T) {
	f, _, dev := newTestFS()
	ino, _ := f.Create("/f")
	if n, errno := f.WriteAt(dev, ino, 100, nil); n != 0 || errno != kernel.OK {
		t.Fatalf("WriteAt(100, nil) = %d, %v", n, errno)
	}
	if node, _ := f.Stat(ino); node.Size != 0 || node.Blocks != nil {
		t.Fatalf("a zero-length write left size %d, table %v", node.Size, node.Blocks)
	}
}

// A read inside one block's prefix lends the device's bytes, with the
// capacity clipped to the read: appending to the result copies, so the
// block, and the next read of it, keep their bytes.
func TestLentReadStaysClipped(t *testing.T) {
	f, _, dev := newTestFS()
	ino, _ := f.Create("/f")
	f.WriteAt(dev, ino, 0, []byte("abcdefgh"))
	first, _ := f.ReadAt(dev, ino, 0, 4)
	_ = append(first, "XY"...)
	if got, _ := f.ReadAt(dev, ino, 4, 4); string(first) != "abcd" || string(got) != "efgh" {
		t.Fatalf("ReadAt(0, 4), appended to, then ReadAt(4, 4) = %q then %q, want abcd then efgh", first, got)
	}
	if cap(first) != len(first) {
		t.Fatalf("ReadAt(0, 4) has capacity %d", cap(first))
	}
}
