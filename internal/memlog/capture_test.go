package memlog

import (
	"bytes"
	"reflect"
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
	type kept struct {
		st  *Store
		img []byte
	}
	var caps []kept
	reused, recopied, fresh := 0, 0, 0
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

// sharesContents reports whether two copies of a map or a slice hold the
// same Go map or the same pages, or two copies of a string cell the same
// bytes: what their contents are, by identity.
func sharesContents(a, b container) bool {
	switch a := a.(type) {
	case *Cell[string]:
		return unsafe.StringData(a.v) == unsafe.StringData(b.(*Cell[string]).v)
	case *Map[int64, int64]:
		return sameGoMap(a.m, b.(*Map[int64, int64]).m)
	case *Map[int64, string]:
		return sameGoMap(a.m, b.(*Map[int64, string]).m)
	case *Slice[int32]:
		bs := b.(*Slice[int32])
		if len(a.pages) != len(bs.pages) || len(a.pages) == 0 {
			return false
		}
		for i := range a.pages {
			if a.pages[i].elems != bs.pages[i].elems {
				return false
			}
		}
		return true
	}
	return false
}

func sameGoMap[K comparable, V any](a, b map[K]V) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
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
// of each that shares the previous capture's contents and carries the
// container's own bookkeeping, and the container stays unshared, so its
// next write copies nothing. A capture after a net change shares none.
// It holds whether or not anything was fingerprinted: elision pinned off
// fingerprints nothing.
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
		if !m.owned || !sl.pages[1].owned {
			t.Errorf("fingerprinted %v: the capture left the written map (owned %v) or page (owned %v) shared", fingerprinted, m.owned, sl.pages[1].owned)
		}
		if mallocs, _ := heapUse(func() { m.Set(1, "one"); sl.Set(slicePageLen, 0) }); mallocs != 0 {
			t.Errorf("fingerprinted %v: the first writes after the capture allocated %d times: they copied a shared map or page", fingerprinted, mallocs)
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
	sl.pages[1].mix = first.containers["slice"].(*Slice[int32]).pages[1].mix
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
