package memlog

import (
	"fmt"
	"maps"
	"reflect"
	"slices"

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

func (c *Cell[T]) recopy(dst *Store, prev container, x *sameScratch) container {
	p := prev.(*Cell[T])
	wire.Elem(x.a.restart(), &c.v)
	wire.Elem(x.b.restart(), &p.v)
	if !x.same() {
		return nil
	}
	return &Cell[T]{store: dst, id: c.id, sig: c.sig, v: p.v}
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

// Map is an instrumented, insertion-ordered map. Iteration order is the
// order keys were first inserted, which keeps the simulation
// deterministic without sorting.
//
// Invariant: order holds exactly the present keys, in insertion order —
// every path that deletes a key also removes it from order.
type Map[K comparable, V any] struct {
	store *Store
	id    string
	cm    contMeta
	olds  sideLog[mapOld[K, V]]
	// ksig and vsig are typeSig[K]() and typeSig[V]().
	ksig, vsig string
	m          map[K]V
	order      []K
	// owned marks m and order as this map's alone, which it may write in
	// place. Otherwise they are shared — with a clone, a snapshot and
	// every fork of it — and the first write copies both (own), as a
	// Slice's first write to a shared page copies the page (DESIGN.md §7).
	owned bool
	// hv holds the value a fingerprint is hashing (codeState). Host-only:
	// never cloned, forked or in an image.
	hv V
}

func newMap[K comparable, V any](s *Store, id string) *Map[K, V] {
	return &Map[K, V]{store: s, id: id, ksig: typeSig[K](), vsig: typeSig[V](), m: make(map[K]V), owned: true}
}

// mapOld is what one logged Set or Delete of a Map replaced: the value
// key had, or that it had none (undo = delete). A Delete also records the
// key's position in the insertion order, where its undo puts it back.
type mapOld[K comparable, V any] struct {
	key    K
	old    V
	absent bool
	at     int
}

// NewMap registers an empty map named id, or returns the existing one
// on a cloned store.
func NewMap[K comparable, V any](s *Store, id string) *Map[K, V] {
	mustCode[K](id)
	mustCode[V](id)
	if existing := s.lookup(id); existing != nil {
		m, ok := existing.(*Map[K, V])
		if !ok {
			panic(fmt.Sprintf("memlog: container %q re-declared with a different type", id))
		}
		return m
	}
	m := newMap[K, V](s, id)
	materializePending(s, m)
	s.register(m)
	return m
}

// Get returns the value for key and whether it is present.
func (m *Map[K, V]) Get(key K) (V, bool) {
	v, ok := m.m[key]
	return v, ok
}

// Len reports the number of keys present.
func (m *Map[K, V]) Len() int { return len(m.m) }

// Set inserts or overwrites key, logging the previous state.
func (m *Map[K, V]) Set(key K, v V) {
	old, present := m.m[key]
	if m.store.shouldLog() {
		bytes := approxSize(old)
		if !present {
			bytes = approxSize(key)
		}
		m.store.appendLogged(undoRec{
			entry: m.id,
			kind:  recMapSet,
			pos:   m.olds.push(m.store, mapOld[K, V]{key: key, old: old, absent: !present}),
			bytes: bytes,
		})
	} else {
		m.store.noteUnloggedStores(1)
	}
	m.own()
	if !present {
		m.order = append(m.order, key)
	}
	m.m[key] = v
	m.store.touch(m, &m.cm)
}

// Delete removes key if present, logging the removed value.
func (m *Map[K, V]) Delete(key K) {
	old, ok := m.m[key]
	if !ok {
		return
	}
	m.own()
	at := m.removeFromOrder(key)
	if m.store.shouldLog() {
		m.store.appendLogged(undoRec{
			entry: m.id,
			kind:  recMapDelete,
			pos:   m.olds.push(m.store, mapOld[K, V]{key: key, old: old, at: at}),
			bytes: approxSize(old),
		})
	} else {
		m.store.noteUnloggedStores(1)
	}
	delete(m.m, key)
	m.store.touch(m, &m.cm)
}

// Keys returns the present keys in insertion order. The result is the
// map's internally maintained order index — a borrowed, read-only view,
// which clones of the map may share: callers must not mutate it and must
// not hold it across subsequent Set/Delete calls (which update it in
// place). This keeps Keys allocation-free.
func (m *Map[K, V]) Keys() []K { return m.order }

// ForEach calls fn for each key/value pair in insertion order. It stops
// early if fn returns false. fn must not mutate the map.
func (m *Map[K, V]) ForEach(fn func(K, V) bool) {
	for _, k := range m.order {
		if v, ok := m.m[k]; ok {
			if !fn(k, v) {
				return
			}
		}
	}
}

// own makes m and order this map's alone before a write: copies of both,
// unless the map owns them already.
func (m *Map[K, V]) own() {
	if !m.owned {
		m.m, m.order, m.owned = maps.Clone(m.m), slices.Clone(m.order), true
	}
}

// removeFromOrder drops key from the order index and returns where it
// stood, or -1 if it was absent. The caller owns the map.
func (m *Map[K, V]) removeFromOrder(key K) int {
	i := slices.Index(m.order, key)
	if i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	return i
}

func (m *Map[K, V]) name() string { return m.id }

func (m *Map[K, V]) meta() *contMeta { return &m.cm }

func (m *Map[K, V]) bytes() int {
	total := 0
	for _, k := range m.order {
		total += approxSize(k) + approxSize(m.m[k])
	}
	return total
}

// clone shares the map and its order with the clone, and neither side
// owns them then: the first write to either copies them. A map that does
// not own them — a snapshot's — is only read, so concurrent forks of one
// snapshot do not race.
func (m *Map[K, V]) clone(dst *Store) container {
	if m.owned {
		m.owned = false
	}
	return &Map[K, V]{store: dst, id: m.id, ksig: m.ksig, vsig: m.vsig, m: m.m, order: m.order}
}

// recopy compares the order index, then each key's value: the live
// map's through hv, the previous copy's read into hv, since a walk of a
// value elsewhere would put it on the heap.
func (m *Map[K, V]) recopy(dst *Store, prev container, x *sameScratch) container {
	p := prev.(*Map[K, V])
	if !slices.Equal(m.order, p.order) {
		return nil
	}
	same := true
	for _, k := range m.order {
		m.hv = m.m[k]
		wire.Elem(x.a.restart(), &m.hv)
		m.hv = p.m[k]
		wire.Elem(x.b.restart(), &m.hv)
		if same = x.same(); !same {
			break
		}
	}
	var zero V
	m.hv = zero
	if !same {
		return nil
	}
	return &Map[K, V]{store: dst, id: m.id, ksig: m.ksig, vsig: m.vsig, m: p.m, order: p.order}
}

func (m *Map[K, V]) undo(rec undoRec) {
	if rec.kind != recMapSet && rec.kind != recMapDelete {
		panic(fmt.Sprintf("memlog: bad undo kind %d for map %q", rec.kind, m.id))
	}
	e := m.olds.pop(m.store, m.id, rec.pos)
	m.own()
	if e.absent {
		delete(m.m, e.key)
		m.removeFromOrder(e.key)
	} else {
		if _, present := m.m[e.key]; !present {
			// Records are undone newest first, so a deleted key goes back
			// where it stood. A silent corruption bypasses the log and may
			// have dropped keys since; what it dropped stays dropped.
			at := len(m.order)
			if rec.kind == recMapDelete && e.at < at {
				at = e.at
			}
			m.order = slices.Insert(m.order, at, e.key)
		}
		m.m[e.key] = e.old
	}
	m.store.touch(m, &m.cm)
}

func (m *Map[K, V]) adoptLog(src container) {
	other, ok := src.(*Map[K, V])
	if !ok {
		panic(fmt.Sprintf("memlog: undo type mismatch for map %q", m.id))
	}
	m.olds.adopt(m.store, &other.olds, other.store)
}

func (m *Map[K, V]) corrupt(r *sim.RNG) bool {
	if len(m.order) == 0 {
		return false
	}
	// Pick a random present key deterministically via insertion order.
	// order holds exactly the present keys, so indexing it directly
	// consumes the same RNG draw the old Keys()-copy did.
	k := m.order[r.Intn(len(m.order))]
	nv, ok := corruptValue(any(m.m[k]), r)
	// A value of a type corruptValue does not perturb is dropped instead:
	// a lost record is a realistic silent-corruption outcome.
	if m.store.mode == FullCopy { // logged: see Store.CorruptRandom
		if ok {
			m.Set(k, nv.(V))
		} else {
			m.Delete(k)
		}
		return true
	}
	m.own()
	if ok {
		m.m[k] = nv.(V)
	} else {
		delete(m.m, k)
		m.removeFromOrder(k)
	}
	m.store.touch(m, &m.cm)
	return true
}

// A Slice keeps its elements in pages of slicePageLen, the memlog twin
// of the driver's paged disk (DESIGN.md §7): a clone copies the page
// table and shares the pages, the first write to a shared page copies
// it, and a fingerprint hashes again only the pages written since the
// last one.
const (
	slicePageShift = 10
	slicePageLen   = 1 << slicePageShift
	slicePageMask  = slicePageLen - 1
	// inlinePages is how many pages a Slice keeps the table of inside
	// itself: vm.frames' sixteen, so that neither a decode, a bulk fill
	// nor a clone of it allocates a table besides.
	inlinePages = 16
)

// slicePage is one entry of a Slice's page table.
type slicePage[T any] struct {
	elems *[slicePageLen]T
	// mix is the hash of the page's elements below the slice's length,
	// current unless stale is set.
	mix uint64
	// owned marks a page only this slice points to, which it may write in
	// place. Every other page is shared — with a clone, a snapshot and
	// every fork of it — and is copied by the first write that lands on
	// it.
	owned bool
	stale bool
}

// Slice is an instrumented growable sequence.
type Slice[T any] struct {
	store *Store
	id    string
	cm    contMeta
	olds  sideLog[sliceOld[T]]
	sig   string // typeSig[T]()
	// pages holds the n elements, n rounded up to whole pages. What the
	// last page holds past n is undefined: whatever lengthens the slice
	// writes it. Up to inlinePages, the table is inline.
	pages  []slicePage[T]
	inline [inlinePages]slicePage[T]
	n      int
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
	return s.pages[i>>slicePageShift].elems[i&slicePageMask]
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
	return s.page(i >> slicePageShift)[i&slicePageMask:]
}

// page returns the elements of page p below the length.
func (s *Slice[T]) page(p int) []T {
	return s.pages[p].elems[:min(slicePageLen, s.n-p<<slicePageShift)]
}

// own returns page p for writing, copying it first unless this slice
// owns it, and marks its mix stale.
func (s *Slice[T]) own(p int) *[slicePageLen]T {
	pg := &s.pages[p]
	if !pg.owned {
		cp := new([slicePageLen]T)
		*cp = *pg.elems
		pg.elems, pg.owned = cp, true
	}
	pg.stale = true
	return pg.elems
}

// slot returns element i for writing (own).
func (s *Slice[T]) slot(i int) *T {
	return &s.own(i >> slicePageShift)[i&slicePageMask]
}

// addPages appends k zeroed pages to the table, owned and stale, from one
// allocation.
func (s *Slice[T]) addPages(k int) {
	backing := make([]T, k<<slicePageShift)
	if s.pages == nil {
		s.pages = s.inline[:0]
	}
	s.pages = slices.Grow(s.pages, k)
	for j := 0; j < k; j++ {
		s.pages = append(s.pages, slicePage[T]{
			elems: (*[slicePageLen]T)(backing[j<<slicePageShift:]),
			owned: true,
			stale: true,
		})
	}
	s.made = true
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
	*s.slot(i) = v
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

// push writes v past the end.
func (s *Slice[T]) push(v T) {
	if s.n == len(s.pages)<<slicePageShift {
		s.addPages(1)
	}
	*s.slot(s.n) = v
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
	if r := s.n & slicePageMask; r != 0 {
		// What an undone Append left past the end, maybe in a shared
		// page.
		clear(s.own(len(s.pages) - 1)[r:])
	}
	if more := (s.n+n+slicePageMask)>>slicePageShift - len(s.pages); more > 0 {
		s.addPages(more)
	}
	s.n += n
	s.touch()
}

// cut shortens the slice to n elements: the pages past them leave the
// table, and the mix of a last page they end inside covers less.
func (s *Slice[T]) cut(n int) {
	np := (n + slicePageMask) >> slicePageShift
	clear(s.pages[np:])
	s.pages = s.pages[:np]
	s.n = n
	if n&slicePageMask != 0 {
		s.pages[np-1].stale = true
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
	for p := range s.pages {
		for _, v := range s.page(p) {
			total += approxSize(v)
		}
	}
	return total
}

// clone copies the page table only: the clone and this slice then
// share every page and own none. A slice that owns no page — a
// snapshot's — is only read, so concurrent forks of one snapshot do not
// race.
func (s *Slice[T]) clone(dst *Store) container {
	clone := &Slice[T]{store: dst, id: s.id, sig: s.sig, n: s.n, made: true}
	clone.pages = append(clone.inline[:0], s.pages...)
	for p := range clone.pages {
		clone.pages[p].owned = false
	}
	for p := range s.pages {
		if s.pages[p].owned {
			s.pages[p].owned = false
		}
	}
	return clone
}

// recopy compares only the pages this slice no longer shares with
// prev, below the length, skipping the comparison where both pages' mixes
// are current and differ. The copy's table is the one clone would make,
// with prev's pages in it.
func (s *Slice[T]) recopy(dst *Store, prev container, x *sameScratch) container {
	p := prev.(*Slice[T])
	if s.n != p.n || len(s.pages) != len(p.pages) {
		return nil
	}
	for i := range s.pages {
		sp, pp := &s.pages[i], &p.pages[i]
		if sp.elems == pp.elems {
			continue
		}
		if !sp.stale && !pp.stale && sp.mix != pp.mix {
			return nil
		}
		wire.Items(x.a.restart(), s.page(i))
		wire.Items(x.b.restart(), p.page(i))
		if !x.same() {
			return nil
		}
	}
	cp := &Slice[T]{store: dst, id: s.id, sig: s.sig, n: s.n, made: true}
	cp.pages = append(cp.inline[:0], s.pages...)
	for i := range cp.pages {
		cp.pages[i].elems, cp.pages[i].owned = p.pages[i].elems, false
	}
	return cp
}

func (s *Slice[T]) undo(rec undoRec) {
	switch rec.kind {
	case recSliceSet:
		e := s.olds.pop(s.store, s.id, rec.pos)
		*s.slot(e.i) = e.old
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
	*s.slot(i) = nv.(T)
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

func (m *Map[K, V]) codeState(w *wire.Codec) {
	w.Tag(m.ksig, sigArrow, m.vsig)
	// Entries are written in insertion order (not sorted): the order
	// index is part of the map's observable state.
	n := w.Len(len(m.order))
	if w.Decoding() {
		m.m, m.order, m.owned = make(map[K]V, n), make([]K, n), true
	}
	// Keys are coded in place, in the order index; the values go through
	// one V for the whole walk. A fingerprint, which is the store owner's
	// walk and allocates nothing, uses the map's own; any other walk a new
	// one, since an encoding may read a snapshot other goroutines read.
	v := &m.hv
	if !w.Hashing() {
		v = new(V)
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		k := &m.order[i]
		wire.Elem(w, k)
		if !w.Decoding() {
			*v = m.m[*k]
			wire.Elem(w, v)
			continue
		}
		if wire.Elem(w, v); w.Err() != nil {
			break
		}
		if _, dup := m.m[*k]; dup {
			w.Fail(fmt.Errorf("memlog: map %q payload repeats a key", m.id))
		}
		m.m[*k] = *v
	}
}

// A slice's payload is the slice form of its elements (wire.Elems's
// bytes), coded page by page. Its hash has a word a page instead: the
// page's mix, computed afresh only for a stale page.
func (s *Slice[T]) codeState(w *wire.Codec) {
	w.Tag(s.sig)
	made, n := w.Head(s.made, s.n)
	switch {
	case w.Decoding():
		s.pages, s.n, s.made = nil, 0, made
		if n > 0 {
			s.addPages((n + slicePageMask) >> slicePageShift)
			s.n = n
		}
		for p := 0; p < len(s.pages) && w.Err() == nil; p++ {
			wire.Items(w, s.page(p))
		}
	case w.Hashing():
		for p := range s.pages {
			pg := &s.pages[p]
			if pg.stale {
				pg.mix, pg.stale = wire.ItemsSum(w, s.page(p)), false
			}
			w.Uvarint(&pg.mix)
		}
	default:
		for p := range s.pages {
			wire.Items(w, s.page(p))
		}
	}
}
