package memlog

import (
	"fmt"
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
		c.store.noteUnloggedStore()
	}
	c.v = v
	c.store.touch(c, &c.cm)
}

func (c *Cell[T]) name() string { return c.id }

func (c *Cell[T]) meta() *contMeta { return &c.cm }

func (c *Cell[T]) bytes() int { return approxSize(c.v) }

func (c *Cell[T]) cloneInto(dst *Store) {
	clone := &Cell[T]{store: dst, id: c.id, sig: c.sig, v: c.v}
	dst.register(clone)
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
	// hv holds the value a fingerprint is hashing (codeState). Host-only:
	// never cloned, forked or in an image.
	hv V
}

func newMap[K comparable, V any](s *Store, id string) *Map[K, V] {
	return &Map[K, V]{store: s, id: id, ksig: typeSig[K](), vsig: typeSig[V](), m: make(map[K]V)}
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
		m.store.noteUnloggedStore()
	}
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
	at := m.removeFromOrder(key)
	if m.store.shouldLog() {
		m.store.appendLogged(undoRec{
			entry: m.id,
			kind:  recMapDelete,
			pos:   m.olds.push(m.store, mapOld[K, V]{key: key, old: old, at: at}),
			bytes: approxSize(old),
		})
	} else {
		m.store.noteUnloggedStore()
	}
	delete(m.m, key)
	m.store.touch(m, &m.cm)
}

// Keys returns the present keys in insertion order. The result is the
// map's internally maintained order index — a borrowed, read-only view:
// callers must not mutate it and must not hold it across subsequent
// Set/Delete calls (which update it in place). This keeps Keys
// allocation-free.
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

// removeFromOrder drops key from the order index and returns where it
// stood, or -1 if it was absent.
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

func (m *Map[K, V]) cloneInto(dst *Store) {
	clone := &Map[K, V]{store: dst, id: m.id, ksig: m.ksig, vsig: m.vsig, m: make(map[K]V, len(m.m))}
	for _, k := range m.order {
		clone.m[k] = m.m[k]
		clone.order = append(clone.order, k)
	}
	dst.register(clone)
}

func (m *Map[K, V]) undo(rec undoRec) {
	if rec.kind != recMapSet && rec.kind != recMapDelete {
		panic(fmt.Sprintf("memlog: bad undo kind %d for map %q", rec.kind, m.id))
	}
	e := m.olds.pop(m.store, m.id, rec.pos)
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
	if ok {
		m.m[k] = nv.(V)
	} else {
		delete(m.m, k)
		m.removeFromOrder(k)
	}
	m.store.touch(m, &m.cm)
	return true
}

// Slice is an instrumented growable sequence.
type Slice[T any] struct {
	store *Store
	id    string
	cm    contMeta
	olds  sideLog[sliceOld[T]]
	// muts counts the times the elements changed by any route, logged or
	// not (every touch). Host-only: never cloned, forked or in an image.
	muts uint64
	sig  string // typeSig[T]()
	v    []T
}

func newSlice[T any](s *Store, id string) *Slice[T] {
	return &Slice[T]{store: s, id: id, sig: typeSig[T]()}
}

// sliceOld is one element a logged Set overwrote or a logged Truncate
// removed. An Append has no entry: its undo needs none.
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
func (s *Slice[T]) Len() int { return len(s.v) }

// Get returns element i. It panics on out-of-range i, like a slice.
func (s *Slice[T]) Get(i int) T { return s.v[i] }

// View returns the elements themselves, not a copy, for a scan that
// would otherwise pay a Get per element. The aliasing contract, stated
// once: the view is read-only — every write goes through Set, which
// logs it — and it is valid until the next Append, Truncate, Reserve or
// rollback of the slice; a Set in between shows through it.
func (s *Slice[T]) View() []T { return s.v }

// Set overwrites element i, logging the old value.
func (s *Slice[T]) Set(i int, v T) {
	if s.store.shouldLog() {
		s.store.appendLogged(undoRec{
			entry: s.id,
			kind:  recSliceSet,
			pos:   s.olds.push(s.store, sliceOld[T]{i, s.v[i]}),
			bytes: approxSize(s.v[i]),
		})
	} else {
		s.store.noteUnloggedStore()
	}
	s.v[i] = v
	s.touch()
}

// Append adds v at the end.
func (s *Slice[T]) Append(v T) {
	if s.store.shouldLog() {
		s.store.appendLogged(undoRec{
			entry: s.id,
			kind:  recSliceAppend,
			bytes: 8,
		})
	} else {
		s.store.noteUnloggedStore()
	}
	s.v = append(s.v, v)
	s.touch()
}

// Reserve makes room for n more Appends without reallocating. It is
// host-side only: no store is counted, charged, logged or marked dirty,
// so a run with and without it is the same simulated run.
func (s *Slice[T]) Reserve(n int) {
	if cap(s.v)-len(s.v) < n {
		grown := make([]T, len(s.v), len(s.v)+n)
		copy(grown, s.v)
		s.v = grown
	}
}

// Truncate shortens the slice to length n, logging the removed tail.
// It panics if n is negative or beyond the current length.
func (s *Slice[T]) Truncate(n int) {
	if n < 0 || n > len(s.v) {
		panic(fmt.Sprintf("memlog: Truncate(%d) on slice %q of length %d", n, s.id, len(s.v)))
	}
	if n == len(s.v) {
		return
	}
	if s.store.shouldLog() {
		pos, bytes := 0, 0
		for i := n; i < len(s.v); i++ {
			at := s.olds.push(s.store, sliceOld[T]{i, s.v[i]})
			if i == n {
				pos = at
			}
			bytes += approxSize(s.v[i])
		}
		s.store.appendLogged(undoRec{
			entry: s.id,
			kind:  recSliceTruncate,
			pos:   pos,
			bytes: bytes,
		})
	} else {
		s.store.noteUnloggedStore()
	}
	s.v = s.v[:n]
	s.touch()
}

// ForEach calls fn for each element in order; it stops early if fn
// returns false. fn must not mutate the slice.
func (s *Slice[T]) ForEach(fn func(int, T) bool) {
	for i, v := range s.v {
		if !fn(i, v) {
			return
		}
	}
}

func (s *Slice[T]) name() string { return s.id }

func (s *Slice[T]) meta() *contMeta { return &s.cm }

func (s *Slice[T]) bytes() int {
	total := 0
	for i := range s.v {
		total += approxSize(s.v[i])
	}
	return total
}

func (s *Slice[T]) cloneInto(dst *Store) {
	clone := &Slice[T]{store: dst, id: s.id, sig: s.sig, v: make([]T, len(s.v))}
	copy(clone.v, s.v)
	dst.register(clone)
}

func (s *Slice[T]) undo(rec undoRec) {
	switch rec.kind {
	case recSliceSet:
		e := s.olds.pop(s.store, s.id, rec.pos)
		s.v[e.i] = e.old
	case recSliceAppend:
		s.v = s.v[:len(s.v)-1]
	case recSliceTruncate:
		for _, e := range s.olds.popFrom(s.store, s.id, rec.pos) {
			s.v = append(s.v, e.old)
		}
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
	s.muts++
	s.store.touch(s, &s.cm)
}

// Mutations reports how many times the elements have changed since the
// slice was made — by Set, Append, Truncate, a rollback, or a silent
// corruption. An index derived from the elements is in step with them
// exactly while the count it last saw still stands.
func (s *Slice[T]) Mutations() uint64 { return s.muts }

func (s *Slice[T]) corrupt(r *sim.RNG) bool {
	if len(s.v) == 0 {
		return false
	}
	i := r.Intn(len(s.v))
	nv, ok := corruptValue(any(s.v[i]), r)
	if !ok {
		return false
	}
	if s.store.mode == FullCopy { // logged: see Store.CorruptRandom
		s.Set(i, nv.(T))
		return true
	}
	s.v[i] = nv.(T)
	s.touch()
	return true
}

// Container field lists: one per container kind, which writes the image
// payload (see image.go) when the codec encodes, reads it when it
// decodes, and feeds the fingerprint (Store.Fingerprint) when it hashes.
// Each payload leads with the element-type signature so decoding against
// changed code fails with a clear error (wire.Codec.Tag). The elements go
// through wire.Elem and wire.Elems — routes for the primitive kinds and
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
		m.m = make(map[K]V, n)
		m.order = make([]K, n)
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

func (s *Slice[T]) codeState(w *wire.Codec) {
	w.Tag(s.sig)
	wire.Elems(w, &s.v)
}
