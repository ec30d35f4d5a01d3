package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %d, want 0", c.Now())
	}
	c.Advance(10)
	c.Advance(5)
	if got := c.Now(); got != 15 {
		t.Fatalf("Now() = %d, want 15", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("step %d: same-seed streams diverge: %d != %d", i, x, y)
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/100 outputs", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGUniformityProperty(t *testing.T) {
	// Property: Intn(n) over many draws hits every residue class.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		seen := make(map[int]bool)
		for i := 0; i < 400; i++ {
			seen[r.Intn(8)] = true
		}
		return len(seen) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

var (
	ctrTestIPC    = RegisterCounter("test.ipc")
	ctrTestStores = RegisterCounter("test.stores")
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.AddID(ctrTestIPC, 2)
	c.AddID(ctrTestIPC, 3)
	c.AddID(ctrTestStores, 1)
	if got := c.Get("test.ipc"); got != 5 {
		t.Fatalf("Get(test.ipc) = %d, want 5", got)
	}
	snap := c.Snapshot()
	if snap["test.ipc"] != 5 || snap["test.stores"] != 1 {
		t.Fatalf("Snapshot = %v", snap)
	}
	snap["test.ipc"] = 0
	if c.Get("test.ipc") != 5 {
		t.Fatal("Snapshot is not a copy")
	}
}

func TestHashZerosMatchesBytes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 4095, 4096} {
		want, got := NewHash(), NewHash()
		want.Word(42)
		got.Word(42)
		want.Bytes(make([]byte, n))
		got.Zeros(n)
		if got != want {
			t.Fatalf("Zeros(%d) = %x, Bytes of %d zeros = %x", n, got, n, want)
		}
	}
}
