package memlog

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/wire"
)

// A Map keeps its entries in an insertion-order slab of pages of
// mapPageLen entries and finds a key through an open-addressing index of
// pages of idxPageLen slots, each slot a slab position: two page tables
// (pageTable) under the paged-container rule of DESIGN.md §7, which Slice
// follows too. A clone shares both tables and, through them, every page;
// the first write after it copies a table, and a page only when it writes
// that page.
const (
	mapPageShift = 5
	mapPageLen   = 1 << mapPageShift
	mapPageMask  = mapPageLen - 1
	idxPageShift = 6
	idxPageLen   = 1 << idxPageShift
	idxPageMask  = idxPageLen - 1
	// mapScanLen is the most slab slots a map finds its keys in by a scan
	// of its first page: an index exists only past it.
	mapScanLen = 8
)

// mapEntry is one slot of a map's slab.
type mapEntry[K comparable, V any] struct {
	key K
	val V
}

// Map is an instrumented, insertion-ordered map. Iteration order is the
// order keys were first inserted, which keeps the simulation
// deterministic without sorting.
//
// Invariant: the present entries of the slab, in slab order, are exactly
// the present keys in insertion order, and the index maps each of them
// to its slot. A delete leaves a hole; the holes at the end leave the
// slab, and a compaction (rebuild) bounds the others.
type Map[K comparable, V any] struct {
	store *Store
	id    string
	cm    contMeta
	olds  sideLog[mapOld[K, V]]
	// ksig and vsig are typeSig[K]() and typeSig[V]().
	ksig, vsig string
	// slab holds n slots, of which live hold a key. A page holds its slots
	// below the slab's length: a first page grows with it, every later
	// page has room for mapPageLen. Beside each page is its live mask, bit
	// i set while slot i holds a present key; every other slot below the
	// length is a hole, whose contents mean nothing.
	slab pageTable[mapEntry[K, V], uint32]
	// idx is empty while the slab has at most mapScanLen slots. A slot
	// holds a slab position plus one, or 0 when empty.
	idx     pageTable[uint32, struct{}]
	n, live int
}

func newMap[K comparable, V any](s *Store, id string) *Map[K, V] {
	return &Map[K, V]{store: s, id: id, ksig: typeSig[K](), vsig: typeSig[V]()}
}

// mapOld is what one logged Set or Delete of a Map replaced: the value
// key had, or that it had none (undo = delete). A Delete also records how
// many keys stood before it in the insertion order, where its undo puts
// it back, and the slot it left, which its undo fills when that is still
// where that rank falls.
type mapOld[K comparable, V any] struct {
	key     K
	old     V
	absent  bool
	at, pos int
}

// NewMap registers an empty map named id, or returns the existing one
// on a cloned store. Its keys are integers, bools or strings.
func NewMap[K comparable, V any](s *Store, id string) *Map[K, V] {
	mustHash[K](id)
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
	if p := m.find(key); p >= 0 {
		return m.at(p).val, true
	}
	var zero V
	return zero, false
}

// Len reports the number of keys present.
func (m *Map[K, V]) Len() int { return m.live }

// Set inserts or overwrites key, logging the previous state. A new key
// goes at the end of the slab.
func (m *Map[K, V]) Set(key K, v V) {
	p := m.find(key)
	if m.store.shouldLog() {
		var old V
		bytes := approxSize(key)
		if p >= 0 {
			old = m.at(p).val
			bytes = approxSize(old)
		}
		m.store.appendLogged(undoRec{
			entry: m.id,
			kind:  recMapSet,
			pos:   m.olds.push(m.store, mapOld[K, V]{key: key, old: old, absent: p < 0}),
			bytes: bytes,
		})
	} else {
		m.store.noteUnloggedStores(1)
	}
	if p >= 0 {
		m.entry(p).val = v
	} else {
		m.insert(key, v)
	}
	m.store.touch(m, &m.cm)
}

// Delete removes key if present, logging the removed value.
func (m *Map[K, V]) Delete(key K) {
	p := m.find(key)
	if p < 0 {
		return
	}
	if m.store.shouldLog() {
		old := m.at(p).val
		m.store.appendLogged(undoRec{
			entry: m.id,
			kind:  recMapDelete,
			pos:   m.olds.push(m.store, mapOld[K, V]{key: key, old: old, at: m.rank(p), pos: p}),
			bytes: approxSize(old),
		})
	} else {
		m.store.noteUnloggedStores(1)
	}
	m.remove(p)
	m.store.touch(m, &m.cm)
}

// ForEach calls fn for each key/value pair in insertion order. It stops
// early if fn returns false. fn must not mutate the map.
func (m *Map[K, V]) ForEach(fn func(K, V) bool) {
	for i := range m.slab.tab {
		pg := &m.slab.tab[i]
		for j := range pg.elems {
			if pg.x&(1<<j) != 0 && !fn(pg.elems[j].key, pg.elems[j].val) {
				return
			}
		}
	}
}

// at returns slot p to read.
func (m *Map[K, V]) at(p int) *mapEntry[K, V] {
	return &m.slab.tab[p>>mapPageShift].elems[p&mapPageMask]
}

// present reports whether slot p holds a key.
func (m *Map[K, V]) present(p int) bool {
	return m.slab.tab[p>>mapPageShift].x&(1<<(p&mapPageMask)) != 0
}

// slotAt reads index slot i.
func (m *Map[K, V]) slotAt(i int) uint32 {
	return m.idx.tab[i>>idxPageShift].elems[i&idxPageMask]
}

// setSlot writes index slot i, its page copied first if shared.
func (m *Map[K, V]) setSlot(i int, s uint32) {
	pg := m.idx.mine(i>>idxPageShift, 0)
	if pg == nil {
		pg = m.idx.copy(i>>idxPageShift, idxPageLen)
	}
	pg.elems[i&idxPageMask] = s
}

// find returns the slot of key, or -1 when it is absent.
func (m *Map[K, V]) find(key K) int {
	if m.n == 0 {
		return -1
	}
	if len(m.idx.tab) == 0 {
		pg := &m.slab.tab[0]
		for i := range pg.elems {
			if pg.x&(1<<i) != 0 && pg.elems[i].key == key {
				return i
			}
		}
		return -1
	}
	mask := len(m.idx.tab)<<idxPageShift - 1
	for i := int(hashKey(key)) & mask; ; i = (i + 1) & mask {
		s := m.slotAt(i)
		if s == 0 {
			return -1
		}
		if p := int(s - 1); m.at(p).key == key {
			return p
		}
	}
}

// rank returns how many keys stand before slot p.
func (m *Map[K, V]) rank(p int) int {
	pages, r := m.slab.tab, 0
	for i := 0; i < p>>mapPageShift; i++ {
		r += bits.OnesCount32(pages[i].x)
	}
	return r + bits.OnesCount32(pages[p>>mapPageShift].x&(1<<(p&mapPageMask)-1))
}

// nth returns the slot of the key k keys stand before.
func (m *Map[K, V]) nth(k int) int {
	for i := range m.slab.tab {
		live := m.slab.tab[i].x
		if c := bits.OnesCount32(live); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			live &= live - 1
		}
		return i<<mapPageShift + bits.TrailingZeros32(live)
	}
	panic(fmt.Sprintf("memlog: map %q holds no key of rank %d", m.id, k))
}

// room returns the capacity a copy of slab page i gets to hold need
// slots (pageTable.copy): a whole page past the first; for a first page
// that must grow, twice its length, and otherwise what it has — its
// length for an overwrite, as a copy of the whole map once took.
func (m *Map[K, V]) room(i, need int) int {
	ents := m.slab.tab[i].elems
	switch n, c := len(ents), cap(ents); {
	case i > 0:
		return mapPageLen
	case need > c:
		return min(max(2*n, 1), mapPageLen)
	case need > n:
		return c
	default:
		return n
	}
}

// entry returns slot p for writing.
func (m *Map[K, V]) entry(p int) *mapEntry[K, V] {
	i := p >> mapPageShift
	pg := m.slab.mine(i, 0)
	if pg == nil {
		pg = m.slab.copy(i, m.room(i, 0))
	}
	return &pg.elems[p&mapPageMask]
}

// insert puts key at the end of the slab.
func (m *Map[K, V]) insert(key K, v V) {
	p, i := m.n, m.n>>mapPageShift
	if i == len(m.slab.tab) {
		c := mapPageLen
		if i == 0 {
			c = 1
		}
		m.slab.add(make([]mapEntry[K, V], 0, c), 0, mapPageLen, 0)
	}
	need := p&mapPageMask + 1
	pg := m.slab.mine(i, need)
	if pg == nil {
		pg = m.slab.copy(i, m.room(i, need))
	}
	pg.elems = append(pg.elems, mapEntry[K, V]{key, v})
	pg.x |= 1 << (p & mapPageMask)
	m.n, m.live = p+1, m.live+1
	m.index(p)
}

// index enters the key in slot p into the index, which it builds, or
// rebuilds twice as large, when the key would fill it past three
// quarters.
func (m *Map[K, V]) index(p int) {
	switch {
	case len(m.idx.tab) == 0 && m.n <= mapScanLen:
	case 4*m.live > 3*len(m.idx.tab)<<idxPageShift:
		m.reindex(m.live)
	default:
		m.place(p)
	}
}

// place writes slot p into the first empty index slot from its key's
// hash.
func (m *Map[K, V]) place(p int) {
	mask := len(m.idx.tab)<<idxPageShift - 1
	i := int(hashKey(m.at(p).key)) & mask
	for m.slotAt(i) != 0 {
		i = (i + 1) & mask
	}
	m.setSlot(i, uint32(p+1))
}

// unplace takes slot p out of the index: the entries after it in its
// probe run that may stand where it stood move up (backward shift), so
// no tombstone is left.
func (m *Map[K, V]) unplace(p int) {
	mask := len(m.idx.tab)<<idxPageShift - 1
	i := int(hashKey(m.at(p).key)) & mask
	for m.slotAt(i) != uint32(p+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := m.slotAt(j)
		if s == 0 {
			break
		}
		// s may fill i when i lies between its home slot and j.
		if home := int(hashKey(m.at(int(s-1)).key)) & mask; (j-home)&mask >= (j-i)&mask {
			m.setSlot(i, s)
			i = j
		}
	}
	m.setSlot(i, 0)
}

// reindex builds a new index of at least twice keys slots, from one
// allocation, and enters every present key; none while the slab has at
// most mapScanLen slots.
func (m *Map[K, V]) reindex(keys int) {
	m.idx.cut(0)
	if m.n <= mapScanLen && keys <= mapScanLen {
		return
	}
	size := idxPageLen
	for size < 2*keys {
		size *= 2
	}
	m.idx.add(make([]uint32, size), size, idxPageLen, struct{}{})
	for i := range m.slab.tab {
		for live := m.slab.tab[i].x; live != 0; live &= live - 1 {
			m.place(i<<mapPageShift + bits.TrailingZeros32(live))
		}
	}
}

// remove makes slot p a hole and takes it out of the index. Holes at the
// end leave the slab, and when more than a page and more than the keys
// present are holes, the slab is compacted.
func (m *Map[K, V]) remove(p int) {
	if len(m.idx.tab) > 0 {
		m.unplace(p)
	}
	pg := m.slab.at(p >> mapPageShift)
	pg.x &^= 1 << (p & mapPageMask)
	if pg.owned {
		pg.elems[p&mapPageMask] = mapEntry[K, V]{} // what nothing else reads need not stay reachable
	}
	m.live--
	for m.n > 0 && !m.present(m.n-1) {
		m.n--
		last := m.slab.at(m.n >> mapPageShift)
		last.elems = last.elems[:m.n&mapPageMask]
	}
	if holes := m.n - m.live; holes > mapPageLen && holes > m.live {
		m.rebuild(-1, *new(K), *new(V))
	}
}

// restore puts key back as the key at rank at, which is at most Len: in
// the hole at slot pos when that is where the rank falls, as it does
// unless a compaction or a silent corruption came between; at the end of
// the slab for the last rank; else into a new slab (rebuild).
func (m *Map[K, V]) restore(key K, v V, at, pos int) {
	switch {
	case pos >= 0 && pos < m.n && !m.present(pos) && m.rank(pos) == at:
		*m.entry(pos) = mapEntry[K, V]{key, v}
		m.slab.tab[pos>>mapPageShift].x |= 1 << (pos & mapPageMask)
		m.live++
		m.index(pos)
	case at == m.live:
		m.insert(key, v)
	default:
		m.rebuild(at, key, v)
	}
}

// rebuild compacts the slab into new pages from one allocation, owned,
// with key put in as the key at rank at when at is not negative (and
// below Len: restore appends at the last rank), and indexes it afresh.
func (m *Map[K, V]) rebuild(at int, key K, v V) {
	n := m.live
	if at >= 0 {
		n++
	}
	ents := make([]mapEntry[K, V], 0, n)
	for i := range m.slab.tab {
		pg := &m.slab.tab[i]
		for j := range pg.elems {
			if pg.x&(1<<j) == 0 {
				continue
			}
			if len(ents) == at {
				ents = append(ents, mapEntry[K, V]{key, v})
			}
			ents = append(ents, pg.elems[j])
		}
	}
	m.slab.cut(0)
	m.slab.add(ents, n, mapPageLen, 0)
	for i := range m.slab.tab {
		m.slab.tab[i].x = lowBits(len(m.slab.tab[i].elems))
	}
	m.n, m.live = n, n
	m.reindex(n)
}

// lowBits returns a page's live mask with its first k slots set.
func lowBits(k int) uint32 { return uint32(1<<k - 1) }

func (m *Map[K, V]) name() string { return m.id }

func (m *Map[K, V]) meta() *contMeta { return &m.cm }

func (m *Map[K, V]) bytes() int {
	total := 0
	m.ForEach(func(k K, v V) bool {
		total += approxSize(k) + approxSize(v)
		return true
	})
	return total
}

// clone shares both page tables.
func (m *Map[K, V]) clone(dst *Store) container {
	return &Map[K, V]{store: dst, id: m.id, ksig: m.ksig, vsig: m.vsig, slab: m.slab.share(), idx: m.idx.share(), n: m.n, live: m.live}
}

// reshare takes back the slab pages and the index pages the map holds
// exactly as prev does. Two maps whose slabs lay the same keys out
// differently compare unequal, which only costs a share.
func (m *Map[K, V]) reshare(prev container, x *sameScratch) {
	p := prev.(*Map[K, V])
	m.slab.reshare(&p.slab, x, codeSlabPage[K, V])
	m.idx.reshare(&p.idx, x, codeIndexPage)
}

// codeSlabPage walks a slab page's live mask, then its present entries.
func codeSlabPage[K comparable, V any](c *wire.Codec, pg *page[mapEntry[K, V], uint32]) {
	live := uint64(pg.x)
	c.Uvarint(&live)
	codeEntries(c, pg)
}

// codeIndexPage walks an index page's slots.
func codeIndexPage(c *wire.Codec, pg *page[uint32, struct{}]) {
	wire.Items(c, pg.elems)
}

func (m *Map[K, V]) undo(rec undoRec) {
	if rec.kind != recMapSet && rec.kind != recMapDelete {
		panic(fmt.Sprintf("memlog: bad undo kind %d for map %q", rec.kind, m.id))
	}
	e := m.olds.pop(m.store, m.id, rec.pos)
	switch p := m.find(e.key); {
	case e.absent:
		if p >= 0 {
			m.remove(p)
		}
	case p >= 0:
		m.entry(p).val = e.old
	default:
		// Records are undone newest first, so a deleted key goes back
		// where it stood. A silent corruption bypasses the log and may
		// have dropped keys since; what it dropped stays dropped.
		at, pos := m.live, -1
		if rec.kind == recMapDelete {
			at, pos = min(e.at, at), e.pos
		}
		m.restore(e.key, e.old, at, pos)
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
	if m.live == 0 {
		return false
	}
	// A random present key, picked by its rank in the insertion order.
	p := m.nth(r.Intn(m.live))
	k := m.at(p).key
	nv, ok := corruptValue(any(m.at(p).val), r)
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
		m.entry(p).val = nv.(V)
	} else {
		m.remove(p)
	}
	m.store.touch(m, &m.cm)
	return true
}

// A map's payload is its present entries, key then value, in insertion
// order: the order is part of the map's observable state, and the bytes
// and the hash are the same whatever the slab's holes and pages.
func (m *Map[K, V]) codeState(w *wire.Codec) {
	w.Tag(m.ksig, sigArrow, m.vsig)
	n := w.Len(m.live)
	if w.Decoding() {
		m.decode(w, n)
		return
	}
	for i := 0; i < len(m.slab.tab) && w.Err() == nil; i++ {
		codeEntries(w, &m.slab.tab[i])
	}
}

// codeEntries encodes or hashes the present entries of pg, key then
// value, in slab order.
func codeEntries[K comparable, V any](c *wire.Codec, pg *page[mapEntry[K, V], uint32]) {
	for live := pg.x; live != 0; live &= live - 1 {
		e := &pg.elems[bits.TrailingZeros32(live)]
		wire.Elem(c, &e.key)
		wire.Elem(c, &e.val)
	}
}

// decode reads n entries into a slab from one allocation and an index
// sized for them, refusing a repeated key. What it allocates is a
// multiple of n, which the payload's length bounds (wire.Codec.Len).
func (m *Map[K, V]) decode(w *wire.Codec, n int) {
	m.slab, m.idx, m.n, m.live = pageTable[mapEntry[K, V], uint32]{}, pageTable[uint32, struct{}]{}, 0, 0
	if n == 0 {
		return
	}
	ents := make([]mapEntry[K, V], n)
	m.slab.add(ents, 0, mapPageLen, 0)
	m.reindex(n)
	for p := 0; p < n; p++ {
		pg := &m.slab.tab[p>>mapPageShift]
		e := &ents[p]
		wire.Elem(w, &e.key)
		if wire.Elem(w, &e.val); w.Err() != nil {
			break
		}
		if m.find(e.key) >= 0 {
			w.Fail(fmt.Errorf("memlog: map %q payload repeats a key", m.id))
			break
		}
		pg.elems = pg.elems[:p&mapPageMask+1]
		pg.x |= 1 << (p & mapPageMask)
		m.n, m.live = p+1, p+1
		if len(m.idx.tab) > 0 {
			m.place(p)
		}
	}
}

// mapSeed keys the index's hash, anew in every process: no store image
// can hold keys chosen to collide in the index of the process that
// decodes it, which would make each key's decode probe past every key
// before it. Nothing observable depends on the hash — iteration, the
// image and the fingerprint follow the slab.
var mapSeed = maphash.String(maphash.MakeSeed(), "")

// mustHash panics, naming the map, unless K is a key type hashKey hashes
// — an integer of any width, a bool or a string, each of which wire codes
// too.
func mustHash[K comparable](id string) {
	switch any((*K)(nil)).(type) {
	case *int, *int8, *int16, *int32, *int64,
		*uint, *uint8, *uint16, *uint32, *uint64,
		*bool, *string:
		return
	}
	panic(fmt.Sprintf("memlog: map %q has keys of %s, which are no integer, bool or string", id, typeSig[K]()))
}

// hashKey hashes a map key of every type mustHash admits, without
// allocating and without letting the key escape.
func hashKey[K comparable](key K) uint64 {
	switch k := any(key).(type) {
	case int64:
		return mix(mapSeed ^ uint64(k))
	case int:
		return mix(mapSeed ^ uint64(k))
	case string:
		return hashString(k)
	case int32:
		return mix(mapSeed ^ uint64(k))
	case int16:
		return mix(mapSeed ^ uint64(k))
	case int8:
		return mix(mapSeed ^ uint64(k))
	case uint64:
		return mix(mapSeed ^ k)
	case uint:
		return mix(mapSeed ^ uint64(k))
	case uint32:
		return mix(mapSeed ^ uint64(k))
	case uint16:
		return mix(mapSeed ^ uint64(k))
	case uint8:
		return mix(mapSeed ^ uint64(k))
	case bool:
		if k {
			return mix(mapSeed ^ 1)
		}
		return mix(mapSeed)
	}
	panic("memlog: a map key of a type hashKey does not hash") // NewMap refuses it
}

// hashString hashes s eight bytes at a time. It is written out here, not
// taken from hash/maphash, so that s does not escape: a key built for one
// lookup (fs.direntKey) stays on the stack.
func hashString(s string) uint64 {
	h := mapSeed ^ uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56))
	}
	var tail uint64
	for i := len(s) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(s[i])
	}
	return mix(h ^ tail)
}

// mix is the 64-bit finalizer of MurmurHash3: a bijection whose every
// output bit depends on every input bit.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
