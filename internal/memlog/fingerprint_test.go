package memlog

import "testing"

// fpStore is a store with a container of each kind, scalar and struct
// valued.
type fpStore struct {
	s       *Store
	cell    *Cell[string]
	scalars *Map[int64, int]
	recs    *Map[int64, rec]
	frames  *Slice[int32]
	names   *Slice[string]
	pages   *Map[int64, rec] // several pages of the slab
}

func newFPStore() *fpStore {
	s := NewStore("fp", Optimized)
	return &fpStore{
		s:       s,
		cell:    NewCell(s, "cell", ""),
		scalars: NewMap[int64, int](s, "scalars"),
		recs:    NewMap[int64, rec](s, "recs"),
		frames:  NewSlice[int32](s, "frames"),
		names:   NewSlice[string](s, "names"),
		pages:   NewMap[int64, rec](s, "pages"),
	}
}

// pagesRec is the value the pages map holds at k.
func pagesRec(k int64) rec { return rec{EP: k, Pages: k % 7, Name: "page"} }

// mixes fingerprints f and returns every container's contribution.
func (f *fpStore) mixes(t *testing.T) map[string]uint64 {
	t.Helper()
	if _, err := f.s.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, name := range f.s.order {
		out[name] = f.s.containers[name].meta().fpMix
	}
	return out
}

// A container's contribution to the fingerprint is a function of its
// name and contents, a map's insertion order included, and of nothing
// else: a store that reached the same state by a winding road —
// overwrites, deletes and re-inserts, a rollback that takes back an
// append, a fingerprint on the way — mixes every container alike, and so
// do its fork and its restart clone. That holds for a map of several
// pages too, whose slab the winding road left with holes, compacted and
// grown again. A different value or insertion order moves the
// contribution.
func TestFingerprintIgnoresHistory(t *testing.T) {
	direct := newFPStore()
	direct.cell.Set("final")
	direct.scalars.Set(1, 10)
	direct.scalars.Set(3, 30)
	direct.scalars.Set(2, 20)
	direct.recs.Set(5, rec{EP: 5, Pages: 2, Name: "five"})
	direct.recs.Set(7, rec{EP: 7, Name: "seven"})
	for _, f := range []int32{1, 2, 3} {
		direct.frames.Append(f)
	}
	direct.names.Append("a")
	direct.names.Append("b")
	for k := int64(1); k < 100; k += 2 { // odd keys, then even ones
		direct.pages.Set(k, pagesRec(k))
	}
	for k := int64(0); k < 100; k += 2 {
		direct.pages.Set(k, pagesRec(k))
	}
	want := direct.mixes(t)

	w := newFPStore()
	w.cell.Set("first")
	w.scalars.Set(1, 1)
	w.scalars.Set(2, 2)
	w.scalars.Set(3, 30)
	w.recs.Set(5, rec{EP: 1})
	for _, f := range []int32{9, 9, 9} {
		w.frames.Append(f)
	}
	w.names.Append("z")
	for k := int64(0); k < 150; k++ {
		w.pages.Set(k, rec{EP: -k})
	}
	w.mixes(t) // cache contributions the rest must invalidate
	for k := int64(0); k < 150; k++ {
		if k >= 100 || k%2 == 0 || k > 60 {
			w.pages.Delete(k) // holes, most of them: the slab compacts
		} else {
			w.pages.Set(k, pagesRec(k))
		}
	}
	for k := int64(61); k < 100; k += 2 {
		w.pages.Set(k, pagesRec(k))
	}
	for k := int64(0); k < 100; k += 2 {
		w.pages.Set(k, pagesRec(k))
	}
	w.cell.Set("final")
	w.scalars.Delete(2)
	w.scalars.Set(1, 10)
	w.scalars.Set(2, 20)
	w.recs.Set(7, rec{EP: 7, Name: "seven"})
	w.recs.Set(5, rec{EP: 5, Pages: 2, Name: "five"})
	for i, f := range []int32{1, 2, 3} {
		w.frames.Set(i, f)
	}
	w.names.Set(0, "a")
	w.names.Append("b")
	w.s.SetLogging(true)
	w.s.Checkpoint()
	w.scalars.Set(9, 9)
	w.recs.Set(5, rec{})
	w.frames.Set(0, -1)
	w.names.Append("c")
	for k := int64(25); k < 75; k++ { // across page boundaries
		w.pages.Delete(k)
	}
	w.pages.Set(7, rec{})
	w.s.Rollback()
	w.s.SetLogging(false)

	for what, s := range map[string]*Store{"winding": w.s, "fork": w.s.ForkClone(), "clone": w.s.Clone()} {
		f := &fpStore{s: s}
		for name, got := range f.mixes(t) {
			if got != want[name] {
				t.Errorf("%s store: %s mixes %016x, the direct store %016x", what, name, got, want[name])
			}
		}
	}

	w.scalars.Delete(3)
	w.scalars.Set(3, 30) // same contents, insertion order 1, 2, 3
	w.recs.Set(7, rec{EP: 7, Name: "seven!"})
	w.pages.Delete(1)
	w.pages.Set(1, pagesRec(1)) // same contents, 1 moved to the end
	got := w.mixes(t)
	for _, name := range []string{"scalars", "recs", "pages"} {
		if got[name] == want[name] {
			t.Errorf("%s changed, its mix did not", name)
		}
	}
}
