package memlog

import (
	"fmt"
	"reflect"

	"repro/internal/sim"
	"repro/internal/wire"
)

// typeSig is the container element-type fingerprint embedded in image
// payloads, so decoding an image against changed component code reports
// a clear type mismatch instead of silently misreading bytes. A container
// asks once, when it is made (the name is static data: nothing is
// allocated), and keeps the answer, so that no encode, decode or
// fingerprint goes back to reflect for it.
func typeSig[T any]() string {
	return reflect.TypeOf((*T)(nil)).Elem().String()
}

// mustCode panics, naming the container, unless wire has a route for T:
// a container's elements cross the store image and the fingerprint
// through wire.Elem, and a type without one — a named integer kind, a
// float, a struct with no Code(*wire.Codec) field list — would otherwise
// fail there, at the first snapshot, far from its declaration.
func mustCode[T any](id string) {
	if !wire.Typed[T]() {
		panic(fmt.Sprintf("memlog: container %q holds %s, which has no wire codec (give it a Code(*wire.Codec) field list)", id, typeSig[T]()))
	}
}

// sigArrow joins a map's key and value signatures into its own.
const sigArrow = "→"

// Cell is a single instrumented variable of type T. Every Set goes
// through the store's undo-log hook, like an instrumented store
// instruction on a global or static in the original prototype.
type Cell[T any] struct {
	store *Store
	id    string
	cm    contMeta
	olds  sideLog[T]
	sig   string // typeSig[T]()
	v     T
}

func newCell[T any](s *Store, id string, v T) *Cell[T] {
	return &Cell[T]{store: s, id: id, sig: typeSig[T](), v: v}
}

// NewCell registers a cell named id holding init. If the store already
// holds a cell with this name (a clone built over transferred state),
// the existing cell is returned and init is ignored.
func NewCell[T any](s *Store, id string, init T) *Cell[T] {
	mustCode[T](id)
	if existing := s.lookup(id); existing != nil {
		c, ok := existing.(*Cell[T])
		if !ok {
			panic(fmt.Sprintf("memlog: container %q re-declared with a different type", id))
		}
		return c
	}
	c := newCell(s, id, init)
	materializePending(s, c)
	s.register(c)
	return c
}

// Get returns the current value. Loads are not instrumented (the
// original pass instruments store instructions only).
func (c *Cell[T]) Get() T { return c.v }

// Set overwrites the value, logging the old value for rollback. When
// the store is not logging, the old value is never copied aside: the
// fast path is a branch plus the mode's check cost.
func (c *Cell[T]) Set(v T) {
	if c.store.shouldLog() {
		c.store.appendLogged(undoRec{
			entry: c.id,
			kind:  recCellSet,
			pos:   c.olds.push(c.store, c.v),
			bytes: approxSize(c.v),
		})
	} else {
		c.store.noteUnloggedStores(1)
	}
	c.v = v
	c.store.touch(c, &c.cm)
}

func (c *Cell[T]) name() string { return c.id }

func (c *Cell[T]) meta() *contMeta { return &c.cm }

func (c *Cell[T]) bytes() int { return approxSize(c.v) }

func (c *Cell[T]) clone(dst *Store) container {
	return &Cell[T]{store: dst, id: c.id, sig: c.sig, v: c.v}
}

func (c *Cell[T]) reshare(prev container, x *sameScratch) {
	p := prev.(*Cell[T])
	wire.Elem(x.a.restart(), &c.v)
	wire.Elem(x.b.restart(), &p.v)
	if x.same() {
		c.v = p.v
	}
}

func (c *Cell[T]) undo(rec undoRec) {
	c.v = c.olds.pop(c.store, c.id, rec.pos)
	c.store.touch(c, &c.cm)
}

func (c *Cell[T]) adoptLog(src container) {
	other, ok := src.(*Cell[T])
	if !ok {
		panic(fmt.Sprintf("memlog: undo type mismatch for cell %q", c.id))
	}
	c.olds.adopt(c.store, &other.olds, other.store)
}

func (c *Cell[T]) corrupt(r *sim.RNG) bool {
	nv, ok := corruptValue(any(c.v), r)
	if !ok {
		return false
	}
	if c.store.mode == FullCopy { // logged: see Store.CorruptRandom
		c.Set(nv.(T))
		return true
	}
	c.v = nv.(T)
	c.store.touch(c, &c.cm)
	return true
}

// A Slice keeps its elements in pages of slicePageLen on a page table
// (pageTable), the memlog twin of the driver's paged disk (DESIGN.md §7):
// a clone shares the table, the first write to a shared page copies it,
// and a fingerprint hashes again only the pages written since the last
// one.
const (
	slicePageShift = 10
	slicePageLen   = 1 << slicePageShift
	slicePageMask  = slicePageLen - 1
)

// sliceMix is what a Slice keeps beside each page: the hash of the
// page's elements, current unless stale is set. A stale mix is zero, so
// that two entries of one page stale alike are equal (pageTable.reshare).
type sliceMix struct {
	mix   uint64
	stale bool
}

// Slice is an instrumented growable sequence.
type Slice[T any] struct {
	store *Store
	id    string
	cm    contMeta
	olds  sideLog[sliceOld[T]]
	sig   string // typeSig[T]()
	// pages holds the n elements, slicePageLen a page but in the last,
	// and every page has room for slicePageLen.
	pages pageTable[T, sliceMix]
	n     int
	// made is false while the slice is nil — it has never had pages,
	// been decoded as non-nil or been cloned — which its image head tells
	// from empty (wire.Codec.Head).
	made bool
}

func newSlice[T any](s *Store, id string) *Slice[T] {
	return &Slice[T]{store: s, id: id, sig: typeSig[T]()}
}

// sliceOld is one element a logged Set overwrote. An Append has no
// entry: its undo needs none.
type sliceOld[T any] struct {
	i   int
	old T
}

// NewSlice registers an empty slice named id, or returns the existing
// one on a cloned store.
func NewSlice[T any](s *Store, id string) *Slice[T] {
	mustCode[T](id)
	if existing := s.lookup(id); existing != nil {
		sl, ok := existing.(*Slice[T])
		if !ok {
			panic(fmt.Sprintf("memlog: container %q re-declared with a different type", id))
		}
		return sl
	}
	sl := newSlice[T](s, id)
	materializePending(s, sl)
	s.register(sl)
	return sl
}

// Len reports the current length.
func (s *Slice[T]) Len() int { return s.n }

// Get returns element i. It panics on out-of-range i, like a slice.
func (s *Slice[T]) Get(i int) T {
	if uint(i) >= uint(s.n) {
		panic(rangeError{s.id, i, s.n})
	}
	return s.pages.tab[i>>slicePageShift].elems[i&slicePageMask]
}

// rangeError is the panic of an index past a slice's length: a value,
// formatted only if printed, so that Get stays small enough to inline.
type rangeError struct {
	id   string
	i, n int
}

func (e rangeError) Error() string {
	return fmt.Sprintf("memlog: index %d out of range of slice %q of length %d", e.i, e.id, e.n)
}

// PageFrom returns the elements from i to the end of the page that holds
// it, or to Len, for a scan that would otherwise pay a Get an element.
// The shared-page rule: the result is read-only, because the page may be
// shared with a clone, a snapshot and every fork of it, and it is valid
// until the next write to the slice. Every write goes through the
// slice's methods, which copy a shared page before they write to it.
func (s *Slice[T]) PageFrom(i int) []T {
	if uint(i) >= uint(s.n) {
		panic(rangeError{s.id, i, s.n})
	}
	return s.pages.tab[i>>slicePageShift].elems[i&slicePageMask:]
}

// put writes v to element i, below the length.
func (s *Slice[T]) put(i int, v T) {
	pg := s.pages.mine(i>>slicePageShift, 0)
	if pg == nil {
		pg = s.pages.copy(i>>slicePageShift, slicePageLen)
	}
	pg.elems[i&slicePageMask] = v
	pg.x = sliceMix{stale: true}
}

// Set overwrites element i, logging the old value.
func (s *Slice[T]) Set(i int, v T) {
	old := s.Get(i)
	if s.store.shouldLog() {
		s.store.appendLogged(undoRec{
			entry: s.id,
			kind:  recSliceSet,
			pos:   s.olds.push(s.store, sliceOld[T]{i, old}),
			bytes: approxSize(old),
		})
	} else {
		s.store.noteUnloggedStores(1)
	}
	if pg := s.pages.mine(i>>slicePageShift, 0); pg != nil {
		// put on an owned page, written out so that it costs no call.
		pg.elems[i&slicePageMask] = v
		pg.x = sliceMix{stale: true}
	} else {
		s.put(i, v)
	}
	s.touch()
}

// Append adds v at the end.
func (s *Slice[T]) Append(v T) {
	if s.store.shouldLog() {
		s.logAppend()
	} else {
		s.store.noteUnloggedStores(1)
	}
	s.push(v)
	s.touch()
}

func (s *Slice[T]) logAppend() {
	s.store.appendLogged(undoRec{
		entry: s.id,
		kind:  recSliceAppend,
		bytes: 8,
	})
}

// push writes v past the end, on a new page when the last is full.
func (s *Slice[T]) push(v T) {
	if s.n == len(s.pages.tab)<<slicePageShift {
		s.pages.add(make([]T, 0, slicePageLen), 0, slicePageLen, sliceMix{})
		s.made = true
	}
	pg := s.pages.mine(s.n>>slicePageShift, 0)
	if pg == nil {
		pg = s.pages.copy(s.n>>slicePageShift, slicePageLen)
	}
	pg.elems = append(pg.elems, v)
	pg.x = sliceMix{stale: true}
	s.n++
}

// Grow appends n zero elements. To the simulation it is n Appends of the
// zero value: the same undo records while the store logs, otherwise the
// same store count and cycle charge, made once for all n (a cost sink
// adds cycles up, so that is n charges of one). To the host it is one
// allocation for the pages it adds.
func (s *Slice[T]) Grow(n int) {
	if n < 0 {
		panic(fmt.Sprintf("memlog: Grow(%d) on slice %q", n, s.id))
	}
	if n == 0 {
		return
	}
	if s.store.shouldLog() {
		for i := 0; i < n; i++ {
			s.logAppend()
		}
	} else {
		s.store.noteUnloggedStores(n)
	}
	end := s.n + n
	if r := s.n & slicePageMask; r != 0 {
		// The last page's room, where an undone Append may have left a
		// value, maybe in a shared page.
		pg := s.pages.mine(len(s.pages.tab)-1, 0)
		if pg == nil {
			pg = s.pages.copy(len(s.pages.tab)-1, slicePageLen)
		}
		pg.elems = pg.elems[:min(slicePageLen, r+n)]
		clear(pg.elems[r:])
		pg.x = sliceMix{stale: true}
		s.n += len(pg.elems) - r
	}
	if more := end - s.n; more > 0 {
		s.pages.add(make([]T, (more+slicePageMask)&^slicePageMask), more, slicePageLen, sliceMix{stale: true})
		s.made = true
	}
	s.n = end
	s.touch()
}

// cut shortens the slice to n elements: the pages past them leave the
// table, and a last page they end inside holds fewer.
func (s *Slice[T]) cut(n int) {
	s.pages.cut((n + slicePageMask) >> slicePageShift)
	s.n = n
	if r := n & slicePageMask; r != 0 {
		pg := s.pages.at(len(s.pages.tab) - 1)
		pg.elems, pg.x = pg.elems[:r], sliceMix{stale: true}
	}
}

func (s *Slice[T]) name() string { return s.id }

func (s *Slice[T]) meta() *contMeta { return &s.cm }

func (s *Slice[T]) bytes() int {
	// approxSize gives every value of a type one size, but for a string,
	// a byte slice and what an interface holds: VM's frame table is sized
	// without reading its 16 384 frames.
	var zero T
	switch any(zero).(type) {
	case nil, string, []byte:
	default:
		return s.n * approxSize(zero)
	}
	total := 0
	for _, pg := range s.pages.tab {
		for _, v := range pg.elems {
			total += approxSize(v)
		}
	}
	return total
}

// clone shares the page table.
func (s *Slice[T]) clone(dst *Store) container {
	return &Slice[T]{store: dst, id: s.id, sig: s.sig, pages: s.pages.share(), n: s.n, made: true}
}

func (s *Slice[T]) reshare(prev container, x *sameScratch) {
	s.pages.reshare(&prev.(*Slice[T]).pages, x, codeSlicePage[T])
}

// codeSlicePage walks the elements of a slice's page.
func codeSlicePage[T any](c *wire.Codec, pg *page[T, sliceMix]) {
	wire.Items(c, pg.elems)
}

func (s *Slice[T]) undo(rec undoRec) {
	switch rec.kind {
	case recSliceSet:
		e := s.olds.pop(s.store, s.id, rec.pos)
		s.put(e.i, e.old)
	case recSliceAppend:
		s.cut(s.n - 1)
	default:
		panic(fmt.Sprintf("memlog: bad undo kind %d for slice %q", rec.kind, s.id))
	}
	s.touch()
}

func (s *Slice[T]) adoptLog(src container) {
	other, ok := src.(*Slice[T])
	if !ok {
		panic(fmt.Sprintf("memlog: undo type mismatch for slice %q", s.id))
	}
	s.olds.adopt(s.store, &other.olds, other.store)
}

// touch is the slice's one route to Store.touch.
func (s *Slice[T]) touch() {
	s.store.touch(s, &s.cm)
}

// Mutations reports how many times the elements have changed by any
// route, logged or not — by Set, Append, Grow, a rollback, or a silent
// corruption: the write count of contMeta, which never goes back. An
// index derived from the elements is in step with them exactly while the
// count it last saw still stands.
func (s *Slice[T]) Mutations() uint64 { return s.cm.writes }

func (s *Slice[T]) corrupt(r *sim.RNG) bool {
	if s.n == 0 {
		return false
	}
	i := r.Intn(s.n)
	nv, ok := corruptValue(any(s.Get(i)), r)
	if !ok {
		return false
	}
	if s.store.mode == FullCopy { // logged: see Store.CorruptRandom
		s.Set(i, nv.(T))
		return true
	}
	s.put(i, nv.(T))
	s.touch()
	return true
}

// Container field lists: one per container kind, which writes the image
// payload (see image.go) when the codec encodes, reads it when it
// decodes, and feeds the fingerprint (Store.Fingerprint) when it hashes.
// Each payload leads with the element-type signature so decoding against
// changed code fails with a clear error (wire.Codec.Tag). The elements go
// through wire.Elem and wire.Items — routes for the primitive kinds and
// for structs that list their fields (wire.Coder); the constructors
// refuse any other element type.

func (c *Cell[T]) codeState(w *wire.Codec) {
	w.Tag(c.sig)
	wire.Elem(w, &c.v)
}

// A slice's payload is the slice form of its elements (wire.Elems's
// bytes), coded page by page. Its hash has a word a page instead: the
// page's mix, computed afresh only for a stale page, in the slice's own
// table.
func (s *Slice[T]) codeState(w *wire.Codec) {
	w.Tag(s.sig)
	made, n := w.Head(s.made, s.n)
	switch {
	case w.Decoding():
		s.pages, s.n, s.made = pageTable[T, sliceMix]{}, n, made
		if n > 0 {
			s.pages.add(make([]T, (n+slicePageMask)&^slicePageMask), n, slicePageLen, sliceMix{stale: true})
		}
		for p := 0; p < len(s.pages.tab) && w.Err() == nil; p++ {
			wire.Items(w, s.pages.tab[p].elems)
		}
	case w.Hashing():
		for p := range s.pages.tab {
			if s.pages.tab[p].x.stale {
				pg := s.pages.at(p)
				pg.x = sliceMix{mix: wire.ItemsSum(w, pg.elems)}
			}
			mix := s.pages.tab[p].x.mix
			w.Uvarint(&mix)
		}
	default:
		for p := range s.pages.tab {
			wire.Items(w, s.pages.tab[p].elems)
		}
	}
}
