package faultinject

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/boot"
	"repro/internal/golden"
	"repro/internal/seep"
)

// captureShare is what one held rung's snapshot adds to the ladder over
// the held rung before it, read from the structures themselves.
type captureShare struct {
	entries, newEntries, deadEntries int // kernel process entries
	copies, newCopies                int // store container copies
	stores, newStores                int
}

// shareOf measures snap against prev (nil for the first held rung). It
// reads unexported fields of kernel.MachineImage and memlog.Store through
// reflect, which may read them, never write them.
func shareOf(snap, prev *boot.Snapshot) captureShare {
	var sh captureShare
	procs := reflect.ValueOf(snap.Image.Machine).Elem().FieldByName("procs")
	sh.entries = procs.Len()
	sh.newEntries = sh.entries
	if prev != nil {
		before := reflect.ValueOf(prev.Image.Machine).Elem().FieldByName("procs")
		if procs.Pointer() == before.Pointer() {
			sh.newEntries = sh.entries - before.Len()
		}
	}
	for i := 0; i < procs.Len(); i++ {
		if procs.Index(i).FieldByName("live").Int() == 0 {
			sh.deadEntries++
		}
	}
	for i, slot := range snap.Image.Slots {
		sh.stores++
		var prevStore reflect.Value
		if prev != nil {
			if prev.Image.Slots[i].Store == slot.Store {
				sh.copies += reflect.ValueOf(slot.Store).Elem().FieldByName("containers").Len()
				continue
			}
			prevStore = reflect.ValueOf(prev.Image.Slots[i].Store).Elem().FieldByName("containers")
		}
		sh.newStores++
		conts := reflect.ValueOf(slot.Store).Elem().FieldByName("containers")
		for it := conts.MapRange(); it.Next(); {
			sh.copies++
			if !prevStore.IsValid() {
				sh.newCopies++
				continue
			}
			if old := prevStore.MapIndex(it.Key()); !old.IsValid() || old.Elem().Pointer() != it.Value().Elem().Pointer() {
				sh.newCopies++
			}
		}
	}
	return sh
}

// contentsOf names what snap's copy of the named container holds, by
// identity: the pages of a slice's page table or of a map's slab. "" when
// no store of snap has the container.
func contentsOf(snap *boot.Snapshot, name string) string {
	for _, slot := range snap.Image.Slots {
		c := reflect.ValueOf(slot.Store).Elem().FieldByName("containers").MapIndex(reflect.ValueOf(name))
		if !c.IsValid() {
			continue
		}
		v := c.Elem().Elem()
		table := v.FieldByName("pages")
		if !table.IsValid() {
			table = v.FieldByName("slab")
		}
		pages := table.FieldByName("tab")
		ids := make([]uintptr, pages.Len())
		for i := range ids {
			ids[i] = pages.Index(i).FieldByName("elems").Pointer()
		}
		return fmt.Sprint(ids)
	}
	return ""
}

// maxLadderRetained bounds the heap the walked seed-42 ladder keeps: 1.19
// MB while a fork's first write to a map copied it whole, 1.14 MB since
// a map is paged (go1.24, amd64).
const maxLadderRetained = 1_150_000

// What the seed-42 ladder retains, in bytes of heap after two GCs, and
// counted in the structures a capture adds, which read the same on every
// run: a rung's site counts are one int32 per site seen so far; a kernel
// process entry is at most 32 bytes, and consecutive captures share the
// entries they agree on, so the ladder writes a few times the last
// image's entries, not one image's worth per rung; and a capture takes
// over the previous one's copy of every container nothing wrote in
// between, and its store when that holds for all of them. A container
// written since but back to what it held shares that capture's contents:
// the files, frames and descriptors of each test program are gone again
// by the next barrier, so the captures hold one frame table and two
// versions of the file system's maps.
func TestLadderRetainedSize(t *testing.T) {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	l := newLadder(planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, 42), false)
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	l.serve(nil)
	l.Close()
	// What the walked ladder keeps reachable, read from the heap: the race
	// detector's runtime allocates beside it, so only a build without it
	// holds the figure.
	if retained := heap() - before; !golden.Race && retained > maxLadderRetained {
		t.Errorf("the walked ladder retains %d bytes, want at most %d", retained, maxLadderRetained)
	} else {
		t.Logf("the walked ladder retains %d bytes", retained)
	}
	for r, rg := range l.rungs {
		if len(rg.counts) > len(l.sites) || r > 0 && len(rg.counts) < len(l.rungs[r-1].counts) {
			t.Fatalf("rung %d counts %d sites, the walk saw %d", r, len(rg.counts), len(l.sites))
		}
	}
	var prev *boot.Snapshot
	var total, last captureShare
	held := 0
	shared := []string{"vm.frames", "fs.inodes", "fs.dirents"}
	distinct := make([]map[string]bool, len(shared))
	for i := range distinct {
		distinct[i] = map[string]bool{}
	}
	for r, snap := range l.snaps {
		if snap == nil {
			continue
		}
		for i, name := range shared {
			distinct[i][contentsOf(snap, name)] = true
		}
		if r == 0 {
			if size := reflect.ValueOf(snap.Image.Machine).Elem().FieldByName("procs").Type().Elem().Size(); size > 32 {
				t.Errorf("a kernel process entry takes %d bytes, want at most 32", size)
			}
		}
		last = shareOf(snap, prev)
		total.entries += last.entries
		total.newEntries += last.newEntries
		total.deadEntries += last.deadEntries
		total.copies += last.copies
		total.newCopies += last.newCopies
		total.stores += last.stores
		total.newStores += last.newStores
		prev, held = snap, held+1
	}
	t.Logf("%d held rungs: %d process entries (%d dead), %d written; %d container copies, %d made; %d stores, %d made",
		held, total.entries, total.deadEntries, total.newEntries, total.copies, total.newCopies, total.stores, total.newStores)
	for i, want := range []int{1, 2, 2} {
		if n := len(distinct[i]); n != want || distinct[i][""] {
			t.Errorf("the captures hold %d distinct contents of %s, want %d", n, shared[i], want)
		}
	}
	if held < 100 {
		t.Fatalf("the ladder holds %d rungs, want every rung but the refused few", held)
	}
	if total.newEntries > 3*last.entries {
		t.Errorf("the captures wrote %d process entries, want at most 3 × the last image's %d", total.newEntries, last.entries)
	}
	if 2*total.newCopies > total.copies {
		t.Errorf("the captures made %d of the %d container copies they hold, want at most half", total.newCopies, total.copies)
	}
	if 3*total.newStores > 2*total.stores {
		t.Errorf("the captures made %d of the %d stores they hold, want at most two thirds", total.newStores, total.stores)
	}
}

// BenchmarkLadderWalk times the pathfinder of one plane class (enhanced,
// single-fault): "boot" is newLadder alone, which boots the machine to
// the boot barrier and captures rung 0; "walk" goes on to the end of the
// suite, recording, fingerprinting and capturing every rung and
// publishing the tail, as a campaign's first lookup does. The walk is
// what a resumed campaign or a second one at the same seed does again,
// the one use a stored ladder could save.
func BenchmarkLadderWalk(b *testing.B) {
	cfg := planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, 42)
	for _, walk := range []bool{false, true} {
		name := "boot"
		if walk {
			name = "walk"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := newLadder(cfg, false)
				if l == nil {
					b.Fatal("pathfinder failed to reach the boot barrier")
				}
				if walk {
					l.serve(nil)
				}
				l.Close()
			}
		})
	}
}
