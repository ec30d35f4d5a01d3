//go:build !race

package fs

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/kernel"
	"repro/internal/memlog"
)

// Allocation budget of a small write (the race detector allocates on its
// own, hence the build tag). A block holds its written prefix, so a
// 100-byte write to a never-written block builds a 100-byte buffer, not
// a zero-padded BlockSize one.
func TestSmallWriteAllocation(t *testing.T) {
	const files, perFile = 4, NDirect
	f := New(memlog.NewStore("vfs", memlog.Baseline), files*perFile+1)
	dev := NewMemDevice(files*perFile + 1)
	var inos [files]int64
	for i := range inos {
		inos[i], _ = f.Create("/f" + itoa(int64(i)))
	}
	payload := make([]byte, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ino := range inos {
		for bi := int64(0); bi < perFile; bi++ { // every write lands on a fresh block
			if n, errno := f.WriteAt(dev, ino, bi*BlockSize, payload); n != len(payload) {
				t.Fatalf("WriteAt = %d, %v", n, errno)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if perWrite := (after.TotalAlloc - before.TotalAlloc) / (files * perFile); perWrite > 256 {
		t.Fatalf("a 100-byte write to a fresh block allocates %d bytes, want at most 256", perWrite)
	}
}

// An inode is 48 bytes, which a Go map stores inline (one over 128 bytes
// it stores as a pointer to a record of its own): inserting inodes into
// fs.inodes, and a clone's first write, which copies the map, cost the
// map's own arrays, not a heap record an inode.
func TestInodeInsertAllocation(t *testing.T) {
	if size := unsafe.Sizeof(Inode{}); size != 48 {
		t.Fatalf("an Inode is %d bytes, want 48", size)
	}
	const n = 1000
	store := memlog.NewStore("vfs", memlog.Baseline)
	inodes := memlog.NewMap[int64, Inode](store, "fs.inodes")
	table := []int32{7}
	mallocs := func(what string, do func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		do()
		runtime.ReadMemStats(&after)
		if per := float64(after.Mallocs-before.Mallocs) / n; per >= 1 {
			t.Errorf("%s costs %.2f mallocs an inode, want under one", what, per)
		}
	}
	mallocs("inserting inodes", func() {
		for ino := int64(1); ino <= n; ino++ {
			inodes.Set(ino, Inode{Ino: ino, Size: 10, Blocks: table, Type: TypeFile, Nlink: 1})
		}
	})
	clone := memlog.NewMap[int64, Inode](store.Clone(), "fs.inodes")
	mallocs("a clone's first write", func() {
		clone.Set(1, Inode{Ino: 1, Type: TypeFile, Nlink: 1})
	})
}

// A read inside one block's written prefix returns the device's bytes
// (BlockDevice) and allocates nothing; a read over a hole, past a short
// prefix or across a block still builds its result, with the exact bytes.
func TestReadInPrefixDoesNotAllocate(t *testing.T) {
	f := New(memlog.NewStore("vfs", memlog.Baseline), 8)
	dev := NewMemDevice(8)
	ino, _ := f.Create("/f")
	// Block 0 full, block 1 a hole, block 2 a 5-byte prefix, block 3 one
	// past it.
	model := make([]byte, 3*BlockSize+3)
	copy(model, bytes.Repeat([]byte("0123456789abcdef"), BlockSize/16))
	copy(model[2*BlockSize:], "short")
	copy(model[3*BlockSize:], "end")
	for _, off := range []int64{0, 2 * BlockSize, 3 * BlockSize} {
		f.WriteAt(dev, ino, off, bytes.TrimRight(model[off:min(int(off)+BlockSize, len(model))], "\x00"))
	}
	var got []byte
	if allocs := testing.AllocsPerRun(100, func() { got, _ = f.ReadAt(dev, ino, 100, 1000) }); allocs != 0 {
		t.Fatalf("a read inside a block's prefix allocates %v times, want none", allocs)
	}
	if !bytes.Equal(got, model[100:1100]) {
		t.Fatal("a read inside a block's prefix returns the wrong bytes")
	}
	for _, c := range []struct {
		what string
		off  int64
		n    int
	}{
		{"a read across a block", BlockSize - 8, 16},
		{"a read of a hole", BlockSize + 10, 20},
		{"a read past a short prefix", 2*BlockSize + 2, 20},
		{"a read across a hole and a short prefix", BlockSize - 8, 8 + BlockSize + 5},
		{"a read of the whole file", 0, len(model)},
	} {
		if got, _ := f.ReadAt(dev, ino, c.off, c.n); !bytes.Equal(got, model[c.off:int(c.off)+c.n]) {
			t.Errorf("%s returns %q, want %q", c.what, got, model[c.off:int(c.off)+c.n])
		}
	}
}

// Allocation budget of path resolution: a plain path is walked in place,
// so a Lookup allocates at most each component's directory-entry key, and
// a key short enough for the runtime's 32-byte concatenation buffer does
// not escape the map lookup: resolving "/usr/share/dict" allocates
// nothing (splitPath's two slices were two allocations).
func TestLookupAllocation(t *testing.T) {
	f := New(memlog.NewStore("vfs", memlog.Baseline), 8)
	f.Mkdir("/usr")
	f.Mkdir("/usr/share")
	want, errno := f.Create("/usr/share/dict")
	if errno != kernel.OK {
		t.Fatalf("Create = %v", errno)
	}
	var got int64
	if allocs := testing.AllocsPerRun(100, func() { got, _ = f.Lookup("/usr/share/dict") }); allocs != 0 {
		t.Errorf("a three-component Lookup allocates %v times, want none", allocs)
	}
	if got != want {
		t.Errorf("Lookup = %d, want %d", got, want)
	}
}
