package memlog

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// A capture takes the copy of each container nothing has written since
// the store's last capture from that capture, and a fresh copy of every
// other one: either way it holds exactly what a ForkClone taken at the
// same point does — contents, size and fingerprint bookkeeping and the
// store's scalars — and no later write, fingerprint or capture changes an
// earlier capture.
func TestCaptureMatchesForkClone(t *testing.T) {
	r := sim.NewRNG(5)
	s := NewStore("capture", Optimized)
	cell := NewCell(s, "cell", int64(0))
	NewCell(s, "still", "never written")
	m := NewMap[int64, int64](s, "map")
	sl := NewSlice[int32](s, "slice")
	type kept struct {
		st  *Store
		img []byte
	}
	var caps []kept
	reused, fresh := 0, 0
	for step := 0; step < 400; step++ {
		switch r.Intn(8) {
		case 0:
			cell.Set(int64(r.Intn(3)))
		case 1:
			m.Set(int64(r.Intn(8)), int64(r.Intn(3)))
		case 2:
			m.Delete(int64(r.Intn(8)))
		case 3:
			sl.Append(int32(r.Intn(3)))
		case 4:
			if sl.Len() > 0 {
				sl.Set(r.Intn(sl.Len()), int32(r.Intn(3)))
			}
		case 5:
			s.BaseBytes()
		case 6:
			if _, err := s.Fingerprint(); err != nil {
				t.Fatal(err)
			}
		}
		if r.Intn(3) != 0 {
			continue
		}
		prev := s.captured
		got := s.Capture()
		want := s.ForkClone()
		if msg := sameCopy(got, want); msg != "" {
			t.Fatalf("step %d: the capture differs from a ForkClone: %s", step, msg)
		}
		for name, c := range got.containers {
			if prev != nil && prev.containers[name] == c {
				reused++
			} else {
				fresh++
			}
		}
		caps = append(caps, kept{got, imageOf(t, got)})
	}
	for i, c := range caps {
		if !bytes.Equal(imageOf(t, c.st), c.img) {
			t.Errorf("capture %d changed after it was taken", i)
		}
	}
	if reused == 0 || fresh == 0 {
		t.Errorf("%d container copies reused, %d fresh: want both", reused, fresh)
	}
}

// sameCopy describes how two copies of one store differ, or returns "".
func sameCopy(a, b *Store) string {
	switch {
	case a.storeIdent != b.storeIdent || a.storeCkpt != b.storeCkpt:
		return "scalars"
	case a.fpAgg != b.fpAgg:
		return "fingerprint aggregate"
	case !sameNames(a.sizeDirty, b.sizeDirty) || !sameNames(a.fpDirty, b.fpDirty):
		return "invalidation queues"
	case len(a.order) != len(b.order):
		return "container count"
	}
	for _, name := range a.order {
		ca, cb := a.containers[name], b.containers[name]
		if *ca.meta() != *cb.meta() {
			return name + " bookkeeping"
		}
		if !bytes.Equal(containerState(ca), containerState(cb)) {
			return name + " contents"
		}
	}
	fa, fb := a.ForkClone(), b.ForkClone()
	if fa.BaseBytes() != fb.BaseBytes() {
		return "size"
	}
	ha, errA := fa.Fingerprint()
	hb, errB := fb.Fingerprint()
	if errA != nil || errB != nil || ha != hb {
		return "fingerprint"
	}
	return ""
}

func sameNames(a, b []container) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].name() != b[i].name() {
			return false
		}
	}
	return true
}

func containerState(c container) []byte {
	e := wire.NewEncoder()
	c.codeState(wire.Encoding(e))
	return e.Bytes()
}

func imageOf(t *testing.T, s *Store) []byte {
	t.Helper()
	e := wire.NewEncoder()
	c := wire.Encoding(e)
	if CodeImage(c, &s); c.Err() != nil {
		t.Fatal(c.Err())
	}
	return e.Bytes()
}

// A slice's size is the sum of its elements' approxSize, whether the
// element type sizes every value alike (bytes multiplies) or not.
func TestSliceBytesIsElementSum(t *testing.T) {
	s := NewStore("sizes", Optimized)
	ints := NewSlice[int32](s, "ints")
	wide := NewSlice[int64](s, "wide")
	strs := NewSlice[string](s, "strs")
	for i := 0; i < 3000; i++ {
		ints.Append(int32(i))
		wide.Append(int64(i))
		strs.Append(string(make([]byte, i%7)))
	}
	sum := func(n int, at func(int) any) int {
		total := 0
		for i := 0; i < n; i++ {
			total += approxSize(at(i))
		}
		return total
	}
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"int32", ints.bytes(), sum(ints.Len(), func(i int) any { return ints.Get(i) })},
		{"int64", wide.bytes(), sum(wide.Len(), func(i int) any { return wide.Get(i) })},
		{"string", strs.bytes(), sum(strs.Len(), func(i int) any { return strs.Get(i) })},
	} {
		if c.got != c.want {
			t.Errorf("%s slice sizes %d, its elements %d", c.name, c.got, c.want)
		}
	}
}
