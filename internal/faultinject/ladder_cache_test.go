package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/seep"
)

// Boundary tests for the snapshot-ladder LRU cache itself (the
// campaign-level pressure tests live in ladder_equiv_test.go). All
// names start with TestLadder so CI selects them with -run Ladder.

// TestLadderCacheBoundaries drives snapCache through its budget edges
// with one real rung-0 snapshot reused at several indices: a budget
// smaller than a single snapshot caches nothing, an exact-fit budget
// holds without evicting, and one byte past exact fit evicts in
// least-recently-served order.
func TestLadderCacheBoundaries(t *testing.T) {
	l := newLadder(planeClass{kind: kindSingle}.config(seep.PolicyEnhanced, 7), false)
	if l == nil {
		t.Fatal("pathfinder failed to reach the boot barrier")
	}
	defer l.Close()
	snap := l.cache.rung0
	size := snap.SizeBytes()
	if size <= 0 {
		t.Fatalf("rung 0 snapshot reports size %d", size)
	}

	t.Run("SmallerThanOneSnapshot", func(t *testing.T) {
		c := newSnapCache(size-1, snap)
		c.add(1, snap)
		if len(c.snaps) != 0 || c.used != 0 {
			t.Fatalf("snapshot larger than the whole budget was cached: %d entries, %d bytes", len(c.snaps), c.used)
		}
		if idx, got := c.deepest(5); idx != 0 || got != snap {
			t.Fatalf("deepest fell to rung %d, want the pinned rung 0", idx)
		}
	})

	t.Run("ZeroBudget", func(t *testing.T) {
		c := newSnapCache(0, snap)
		c.add(1, snap)
		if len(c.snaps) != 0 {
			t.Fatal("zero budget still cached a snapshot")
		}
		if idx, _ := c.deepest(3); idx != 0 {
			t.Fatalf("deepest fell to rung %d, want 0", idx)
		}
	})

	t.Run("NegativeBudgetDisables", func(t *testing.T) {
		c := newSnapCache(-1, snap)
		c.add(1, snap)
		c.add(2, snap)
		if len(c.snaps) != 0 || c.used != 0 {
			t.Fatal("disabled cache accepted snapshots")
		}
		if idx, got := c.deepest(2); idx != 0 || got != snap {
			t.Fatalf("disabled cache served rung %d, want the pinned rung 0", idx)
		}
	})

	t.Run("ExactFitDoesNotEvict", func(t *testing.T) {
		c := newSnapCache(2*size, snap)
		c.add(1, snap)
		c.add(2, snap)
		if len(c.snaps) != 2 || c.used != 2*size {
			t.Fatalf("exact-fit pair evicted: %d entries, %d/%d bytes", len(c.snaps), c.used, 2*size)
		}
	})

	t.Run("EvictsLeastRecentlyServed", func(t *testing.T) {
		c := newSnapCache(2*size, snap)
		c.add(1, snap)
		c.add(2, snap)
		// Serve rung 1 so rung 2 becomes the eviction victim.
		if idx, _ := c.deepest(1); idx != 1 {
			t.Fatalf("deepest(1) served rung %d", idx)
		}
		c.add(3, snap)
		if _, ok := c.snaps[2]; ok {
			t.Fatal("least-recently-served rung 2 survived eviction")
		}
		if _, ok := c.snaps[1]; !ok {
			t.Fatal("recently served rung 1 was evicted")
		}
		if _, ok := c.snaps[3]; !ok {
			t.Fatal("newly added rung 3 was evicted instead of the LRU victim")
		}
		if c.used != 2*size {
			t.Fatalf("cache accounts %d bytes after eviction, want %d", c.used, 2*size)
		}
		// And with everything beyond the budget gone, deepest still
		// degrades to rung 0 below the cached range.
		if idx, got := c.deepest(0); idx != 0 || got != snap {
			t.Fatalf("deepest(0) served rung %d", idx)
		}
	})
}

// TestLadderDisabledBudgetWithColdBootPinned combines the two opt-outs
// (negative cache budget and -coldboot): every run must boot cold, be
// charged to the cold-boot pin, and still aggregate bit-identically.
func TestLadderDisabledBudgetWithColdBootPinned(t *testing.T) {
	cfg, profile, coldRes := ladderTestPlan(t)
	cfg.Plane = PlaneOptions{ColdBoot: true, SnapshotCacheBytes: -1}
	res, stats := RunCampaign(cfg, profile)
	if !reflect.DeepEqual(res, coldRes) {
		t.Errorf("campaign diverged with ladder disabled + cold boots pinned:\nwant %+v\ngot  %+v", coldRes, res)
	}
	if stats.LadderForks != 0 || stats.BootForks != 0 {
		t.Errorf("pinned cold-boot campaign still forked: %+v", stats)
	}
	if stats.Fallbacks[FallbackColdBootPinned] != stats.Total() || stats.Total() == 0 {
		t.Errorf("runs not charged to %s: %+v", FallbackColdBootPinned, stats)
	}
}
