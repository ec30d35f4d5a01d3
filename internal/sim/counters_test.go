package sim

import (
	"reflect"
	"testing"
)

var (
	ctrTestSlotted = RegisterCounter("test.slotted")
	ctrTestOther   = RegisterCounter("test.other")
)

func TestRegisterCounterIdempotent(t *testing.T) {
	a := RegisterCounter("test.slot_a")
	b := RegisterCounter("test.slot_b")
	if a == b {
		t.Fatalf("distinct names share slot %d", a)
	}
	if again := RegisterCounter("test.slot_a"); again != a {
		t.Fatalf("re-registration moved the slot: %d != %d", again, a)
	}
	if id, ok := LookupCounter("test.slot_b"); !ok || id != b {
		t.Fatalf("LookupCounter = %d, %v, want %d", id, ok, b)
	}
	if _, ok := LookupCounter("test.never_registered"); ok {
		t.Fatal("LookupCounter resolved a name nobody registered")
	}
}

func TestCountersSlotAndFallbackPaths(t *testing.T) {
	c := NewCounters()
	c.AddID(ctrTestSlotted, 3)
	c.AddID(ctrTestSlotted, 2)
	if got := c.GetID(ctrTestSlotted); got != 5 {
		t.Fatalf("GetID = %d, want 5", got)
	}
	if got := c.Get("test.slotted"); got != 5 {
		t.Fatalf("Get = %d, want 5", got)
	}
	// An unregistered name has no slot: it reads zero.
	if got := c.Get("test.never_registered"); got != 0 {
		t.Fatalf("unregistered Get = %d, want 0", got)
	}
	// A touched counter is in the snapshot even at zero; an untouched
	// one is not.
	c.AddID(ctrTestOther, 0)
	want := map[string]uint64{"test.slotted": 5, "test.other": 0}
	if snap := c.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot = %v, want %v", snap, want)
	}
	clone := c.Clone()
	clone.AddID(ctrTestSlotted, 1)
	if c.GetID(ctrTestSlotted) != 5 || clone.GetID(ctrTestSlotted) != 6 {
		t.Fatal("Clone shares its slots with the original")
	}
}
