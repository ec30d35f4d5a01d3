package memlog

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/wire"
)

// A capture takes the copy of each container nothing has written since
// the store's last capture from that capture, a copy of the previous
// one's contents for a container written back to them, and a fresh copy
// of every other one: each way it holds exactly what a ForkClone taken at
// the same point does — contents, size and fingerprint bookkeeping and
// the store's scalars, and a fork of it encodes, sizes and fingerprints
// as a fork of the ForkClone does — and no later write, fingerprint or
// capture changes an earlier capture.
func TestCaptureMatchesForkClone(t *testing.T) {
	r := sim.NewRNG(5)
	s := NewStore("capture", Optimized)
	cell := NewCell(s, "cell", int64(0))
	NewCell(s, "still", "never written")
	m := NewMap[int64, int64](s, "map")
	sl := NewSlice[int32](s, "slice")
	// wide spans slab pages; deletes of runs of its keys leave runs of
	// holes, and deletes of its newest keys move the end of its slab back
	// across them and across pages. order and vals are what it must hold.
	wide := NewMap[int64, int64](s, "wide")
	var order []int64
	vals := map[int64]int64{}
	type kept struct {
		st  *Store
		img []byte
	}
	var caps []kept
	reused, recopied, fresh := 0, 0, 0
	for step := 0; step < 600; step++ {
		switch r.Intn(10) {
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
		case 7:
			k, v := int64(r.Intn(80)), int64(r.Intn(3))
			if _, ok := vals[k]; !ok {
				order = append(order, k)
			}
			wide.Set(k, v)
			vals[k] = v
		case 8:
			for n := r.Intn(24); n > 0 && len(order) > 0; n-- {
				k := order[len(order)-1]
				wide.Delete(k)
				order = order[:len(order)-1]
				delete(vals, k)
			}
		case 9:
			if len(order) > 0 {
				i := r.Intn(len(order))
				j := min(i+1+r.Intn(16), len(order))
				for _, k := range order[i:j] {
					wide.Delete(k)
					delete(vals, k)
				}
				order = append(order[:i], order[j:]...)
			}
		}
		i := 0
		wide.ForEach(func(k, v int64) bool {
			if i >= len(order) || k != order[i] || v != vals[k] {
				t.Fatalf("step %d: wide holds %d=%d at rank %d, want %v", step, k, v, i, order)
			}
			i++
			return true
		})
		if i != len(order) || wide.Len() != len(order) {
			t.Fatalf("step %d: wide holds %d keys (Len %d), want %d", step, i, wide.Len(), len(order))
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
			switch {
			case prev == nil:
				fresh++
			case prev.containers[name] == c:
				reused++
			case sharesContents(prev.containers[name], c):
				recopied++
			default:
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
	if reused == 0 || recopied == 0 || fresh == 0 {
		t.Errorf("%d container copies reused, %d holding the previous copy's contents, %d fresh: want all three", reused, recopied, fresh)
	}
}

// A capture gives a map back only the previous capture's slab pages that
// hold as many slots as its own, even where a page's live mask and
// present entries are the same and only trailing holes differ: the slab's
// length is the map's, and a page of another length would put the next
// insert past the slot its live bit names, or trim a page past its
// capacity. Each case ends the first page at slot 20 on one side and
// with 12 holes after slot 20 on the other, with nothing fingerprinted.
func TestCaptureKeepsEachPageLength(t *testing.T) {
	keys := func(m *Map[int64, int64], from, to int64, set bool) {
		for k := from; k < to; k++ {
			if set {
				m.Set(k, k)
			} else {
				m.Delete(k)
			}
		}
	}
	for _, tc := range []struct {
		name string
		// before builds the map of the first capture, after rewrites it
		// to the same present entries before the second.
		before, after func(s *Store, m *Map[int64, int64])
	}{
		{"live page shorter", func(s *Store, m *Map[int64, int64]) {
			keys(m, 0, 40, true)
			keys(m, 20, 32, false)
		}, func(s *Store, m *Map[int64, int64]) {
			keys(m, 32, 40, false)
		}},
		{"live page longer", func(s *Store, m *Map[int64, int64]) {
			keys(m, 0, 20, true)
			s.Capture()
			m.Set(5, 50) // copies the shared first page to its length
		}, func(s *Store, m *Map[int64, int64]) {
			keys(m, 20, 40, true)
			keys(m, 20, 32, false)
		}},
	} {
		s := NewStore("lengths", Optimized)
		m := NewMap[int64, int64](s, "map")
		tc.before(s, m)
		s.Capture()
		tc.after(s, m)
		s.Capture()
		keys(m, 32, 40, false)
		m.Set(100, 100)
		want := map[int64]int64{100: 100}
		for k := int64(0); k < 20; k++ {
			want[k] = k
		}
		if tc.name == "live page longer" {
			want[5] = 50
		}
		got := map[int64]int64{}
		m.ForEach(func(k, v int64) bool { got[k] = v; return true })
		for k, v := range want {
			if w, ok := m.Get(k); !ok || w != v || got[k] != v {
				t.Errorf("%s: key %d reads %d (%v), walks as %d, want %d", tc.name, k, w, ok, got[k], v)
			}
		}
		if len(got) != len(want) || m.Len() != len(want) {
			t.Errorf("%s: %d keys walked, Len %d, want %d", tc.name, len(got), m.Len(), len(want))
		}
	}
}

// sharesContents reports whether two copies of a container hold their
// contents in the same memory: a map's slab pages, a slice's pages, a
// string cell's bytes.
func sharesContents(a, b container) bool {
	switch a := a.(type) {
	case *Cell[string]:
		return unsafe.StringData(a.v) == unsafe.StringData(b.(*Cell[string]).v)
	case *Map[int64, int64]:
		return samePages(a.slab, b.(*Map[int64, int64]).slab)
	case *Map[int64, string]:
		return samePages(a.slab, b.(*Map[int64, string]).slab)
	case *Map[int64, rec]:
		return samePages(a.slab, b.(*Map[int64, rec]).slab)
	case *Slice[int32]:
		return samePages(a.pages, b.(*Slice[int32]).pages)
	}
	return false
}

// samePages reports whether two page tables hold the same pages, at least
// one.
func samePages[E any, X comparable](a, b pageTable[E, X]) bool {
	if len(a.tab) != len(b.tab) || len(a.tab) == 0 {
		return false
	}
	for i := range a.tab {
		if !samePage(a.tab[i].elems, b.tab[i].elems) {
			return false
		}
	}
	return true
}

// reuseStore is a store with one container of each kind, the slice three
// pages long.
func reuseStore() (*Store, *Cell[string], *Map[int64, string], *Slice[int32]) {
	s := NewStore("reuse", Optimized)
	cell := NewCell(s, "cell", strings.Repeat("k", 4))
	m := NewMap[int64, string](s, "map")
	m.Set(1, "one")
	m.Set(2, "two")
	sl := NewSlice[int32](s, "slice")
	sl.Grow(3 * slicePageLen)
	return s, cell, m, sl
}

// A capture after writes that leave a container as it was — a set and a
// set back, a new key set and deleted, an undone write — holds a new copy
// of each that carries the container's own bookkeeping, and the
// container has taken the previous capture's pages back, so the live
// container and both captures hold its contents once: its next write
// copies the page table and the page it lands on, no more. A capture
// after a net change shares none. It holds whether or not anything was
// fingerprinted: elision pinned off fingerprints nothing.
func TestCaptureReusesContentsWrittenBack(t *testing.T) {
	for _, fingerprinted := range []bool{false, true} {
		s, cell, m, sl := reuseStore()
		settle := func() {
			if fingerprinted {
				if _, err := s.Fingerprint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		writeBack := func() *Store {
			cell.Set("moved")
			cell.Set(strings.Repeat("k", 4)) // equal bytes in a new string
			m.Set(3, "three")
			m.Delete(3)
			m.Set(1, "uno")
			m.Set(1, "one")
			s.SetLogging(true)
			s.Checkpoint()
			sl.Set(slicePageLen+5, -1)
			sl.Append(7)
			s.Rollback()
			s.SetLogging(false)
			settle()
			return s.Capture()
		}
		settle()
		first := s.Capture()
		second := writeBack()
		for _, name := range s.order {
			a, b := first.containers[name], second.containers[name]
			switch {
			case a == b:
				t.Errorf("fingerprinted %v: %s was written, yet the capture kept the previous copy", fingerprinted, name)
			case !sharesContents(a, b):
				t.Errorf("fingerprinted %v: %s holds what the previous capture does, in contents of its own", fingerprinted, name)
			case *b.meta() != *s.containers[name].meta():
				t.Errorf("fingerprinted %v: %s's copy does not carry the container's bookkeeping", fingerprinted, name)
			}
		}
		for _, name := range s.order {
			if !sharesContents(first.containers[name], s.containers[name]) {
				t.Errorf("fingerprinted %v: %s keeps a copy of its own of what the capture holds", fingerprinted, name)
			}
		}
		if mallocs, _ := heapUse(func() { m.Set(1, "one"); sl.Set(slicePageLen, 0) }); mallocs > 4 {
			t.Errorf("fingerprinted %v: the first writes after the capture allocated %d times, want a page table and a page each", fingerprinted, mallocs)
		}
		third := writeBack()
		if msg := sameCopy(third, s.ForkClone()); msg != "" {
			t.Fatalf("fingerprinted %v: the capture differs from a ForkClone: %s", fingerprinted, msg)
		}
		for _, name := range s.order {
			if !sharesContents(first.containers[name], third.containers[name]) {
				t.Errorf("fingerprinted %v: %s holds what the first capture does, in contents of its own", fingerprinted, name)
			}
		}

		cell.Set("moved")
		m.Set(2, "deux")
		sl.Set(0, 1)
		settle()
		fourth := s.Capture()
		if msg := sameCopy(fourth, s.ForkClone()); msg != "" {
			t.Fatalf("fingerprinted %v: the capture after a net change differs from a ForkClone: %s", fingerprinted, msg)
		}
		for _, name := range s.order {
			if sharesContents(third.containers[name], fourth.containers[name]) {
				t.Errorf("fingerprinted %v: %s changed, yet the capture shares the previous copy's contents", fingerprinted, name)
			}
		}
	}
}

// An equal fingerprint mix only lets the comparison run: contents that
// differ under mixes set equal by hand — a collision — get copies of
// their own.
func TestCaptureRefusesCollidingMix(t *testing.T) {
	s, cell, m, sl := reuseStore()
	if _, err := s.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	first := s.Capture()
	cell.Set("moved")
	m.Set(2, "deux")
	sl.Set(slicePageLen+5, -1)
	if _, err := s.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range s.order {
		s.containers[name].meta().fpMix = first.containers[name].meta().fpMix
	}
	sl.pages.at(1).x = first.containers["slice"].(*Slice[int32]).pages.tab[1].x
	second := s.Capture()
	for _, name := range s.order {
		c := second.containers[name]
		if sharesContents(first.containers[name], c) {
			t.Errorf("%s: the capture took the previous copy's contents on a colliding mix", name)
		}
		if !bytes.Equal(containerState(c), containerState(s.containers[name])) {
			t.Errorf("%s: the capture does not hold the container's contents", name)
		}
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
	ia, errA := encodeStore(fa)
	ib, errB := encodeStore(fb)
	if errA != nil || errB != nil || !bytes.Equal(ia, ib) {
		return "fork encoding"
	}
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
