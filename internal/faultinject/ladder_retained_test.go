package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/boot"
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

// What the seed-42 ladder retains, counted in the structures a capture
// adds rather than in MemStats, so that it reads the same on every run:
// a rung's site counts are one int32 per site seen so far; a kernel
// process entry is at most 32 bytes, and consecutive captures share the
// entries they agree on, so the ladder writes a few times the last
// image's entries, not one image's worth per rung; and a capture takes
// over the previous one's copy of every container nothing wrote in
// between, and its store when that holds for all of them.
func TestLadderRetainedSize(t *testing.T) {
	l := newLadder(planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, 42), false)
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	l.serve(nil)
	l.Close()
	for r, rg := range l.rungs {
		if len(rg.counts) > len(l.sites) || r > 0 && len(rg.counts) < len(l.rungs[r-1].counts) {
			t.Fatalf("rung %d counts %d sites, the walk saw %d", r, len(rg.counts), len(l.sites))
		}
	}
	var prev *boot.Snapshot
	var total, last captureShare
	held := 0
	for r, snap := range l.snaps {
		if snap == nil {
			continue
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
