//go:build !race

package memlog

import (
	"maps"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/wire"
)

// inode is a map value of 56 bytes, the size of fs.Inode.
type inode struct {
	Ino, Size int64
	Blocks    []int32
	Type      int64
	Nlink     int32
}

func (n *inode) Code(c *wire.Codec) {
	wire.Int(c, &n.Ino)
	wire.Int(c, &n.Size)
	wire.IntsPrefix(c, &n.Blocks, 4)
	wire.Int(c, &n.Type)
	wire.Int(c, &n.Nlink)
}

// inodeMap returns a store holding a map of n inodes, keys 0 to n-1.
func inodeMap(n int) (*Store, *Map[int64, inode]) {
	s := NewStore("first", Baseline)
	m := NewMap[int64, inode](s, "map")
	for k := int64(0); k < int64(n); k++ {
		m.Set(k, inode{Ino: k, Size: 4096, Blocks: []int32{int32(k)}, Nlink: 1})
	}
	return s, m
}

// pageSink keeps what a test allocates to measure it.
var pageSink any

// A first write to a clone pays for what it writes, not for the map: on
// a 128-entry map of 56-byte values, the first overwrite, insert and
// delete each allocate at most one slab page, the index pages they touch
// and the copy of the page tables (a delete leaves a hole in a shared
// page and copies none). A first write to an 8-entry map — most of the
// maps a fork writes hold a handful — costs no more bytes or objects than
// the same write did to the shared map, which copied itself whole first:
// a maps.Clone of its Go map and a slices.Clone of its order, 3 objects
// and 688 bytes here (go1.24, amd64), and for an insert the growth of
// both, 7 objects and 2 008 bytes. The test measures those on a Go map
// and a key slice alike.
func TestMapFirstWriteAllocation(t *testing.T) {
	if unsafe.Sizeof(inode{}) != 56 {
		t.Fatalf("the value takes %d bytes, want 56", unsafe.Sizeof(inode{}))
	}
	_, slabPage := heapUse(func() { pageSink = new([mapPageLen]mapEntry[int64, inode]) })
	idxPageBytes := uint64(unsafe.Sizeof([idxPageLen]uint32{}))
	s, _ := inodeMap(128)
	for _, w := range []struct {
		name  string
		write func(*Map[int64, inode])
		slab  uint64
	}{
		{"overwrite", func(m *Map[int64, inode]) { m.Set(70, inode{Ino: 70, Size: 1}) }, 1},
		{"insert", func(m *Map[int64, inode]) { m.Set(1000, inode{Ino: 1000}) }, 1},
		{"delete", func(m *Map[int64, inode]) { m.Delete(70) }, 0},
	} {
		m := NewMap[int64, inode](s.Clone(), "map")
		slab, idx := m.slab.tab, m.idx.tab
		mallocs, bytes := heapUse(func() { w.write(m) })
		// The table copies: each table the write changed, with room for
		// one more page.
		tabObjs, tabBytes := uint64(0), uint64(0)
		if !samePage(m.slab.tab, slab) {
			tabObjs, tabBytes = tabObjs+1, tabBytes+uint64(len(slab)+1)*uint64(unsafe.Sizeof(slab[0]))
		}
		if !samePage(m.idx.tab, idx) {
			tabObjs, tabBytes = tabObjs+1, tabBytes+uint64(len(idx)+1)*uint64(unsafe.Sizeof(idx[0]))
		}
		touched := uint64(0)
		for i := range m.idx.tab {
			if !samePage(m.idx.tab[i].elems, idx[i].elems) {
				touched++
			}
		}
		if touched > 2 {
			t.Errorf("%s: the first write copied %d index pages, want at most 2", w.name, touched)
		}
		wantObjs := tabObjs + w.slab + touched
		wantBytes := tabBytes + w.slab*slabPage + touched*idxPageBytes
		if mallocs > wantObjs || bytes > wantBytes {
			t.Errorf("%s: the first write allocated %d objects, %d bytes; want at most %d, %d (%d slab page, %d index pages and the tables)",
				w.name, mallocs, bytes, wantObjs, wantBytes, w.slab, touched)
		}
	}

	small, _ := inodeMap(8)
	goMap, order := map[int64]inode{}, []int64(nil)
	for k := int64(0); k < 8; k++ {
		goMap[k] = inode{Ino: k}
		order = append(order, k)
	}
	for _, w := range []struct {
		name  string
		write func(*Map[int64, inode])
		whole func(map[int64]inode, []int64) []int64
	}{
		{"overwrite", func(m *Map[int64, inode]) { m.Set(3, inode{Ino: 3, Size: 1}) },
			func(g map[int64]inode, o []int64) []int64 { g[3] = inode{Ino: 3, Size: 1}; return o }},
		{"insert", func(m *Map[int64, inode]) { m.Set(1000, inode{Ino: 1000}) },
			func(g map[int64]inode, o []int64) []int64 { g[1000] = inode{Ino: 1000}; return append(o, 1000) }},
		{"delete", func(m *Map[int64, inode]) { m.Delete(3) },
			func(g map[int64]inode, o []int64) []int64 { delete(g, 3); return slices.Delete(o, 3, 4) }},
	} {
		wholeMallocs, wholeBytes := heapUse(func() { pageSink = w.whole(maps.Clone(goMap), slices.Clone(order)) })
		m := NewMap[int64, inode](small.Clone(), "map")
		if mallocs, bytes := heapUse(func() { w.write(m) }); mallocs > wholeMallocs || bytes > wholeBytes {
			t.Errorf("8 entries, %s: the first write allocated %d objects, %d bytes; copying the map whole took %d, %d",
				w.name, mallocs, bytes, wholeMallocs, wholeBytes)
		}
	}
}
