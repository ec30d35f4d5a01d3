package memlog

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// sharedName is the container the shared-map property test drives.
const sharedName = "table"

// mapCopy is one store of the property test with the plain map and
// insertion order its Map must equal, and the model of its undo log:
// what a rollback must do to the model, newest last.
type mapCopy[V comparable] struct {
	s     *Store
	m     *Map[int64, V]
	model map[int64]V
	order []int64
	undo  []func()
	space int64 // keys are below it
}

func newMapCopy[V comparable](s *Store, model map[int64]V, order []int64, space int64) *mapCopy[V] {
	s.SetLogging(true)
	return &mapCopy[V]{s: s, m: NewMap[int64, V](s, sharedName), model: model, order: order, space: space}
}

// fork returns a copy over s holding what c's model holds now.
func (c *mapCopy[V]) fork(s *Store) *mapCopy[V] {
	return newMapCopy(s, maps.Clone(c.model), slices.Clone(c.order), c.space)
}

// logged records the model's undo of an operation the store logs.
func (c *mapCopy[V]) logged(undo func()) {
	if c.s.shouldLog() {
		c.undo = append(c.undo, undo)
	}
}

// drop removes key from the model, if present, and returns where it
// stood.
func (c *mapCopy[V]) drop(key int64) int {
	at := slices.Index(c.order, key)
	if at >= 0 {
		c.order = slices.Delete(c.order, at, at+1)
		delete(c.model, key)
	}
	return at
}

// restore is the undo of a store that replaced old at key. A key a
// silent corruption has dropped since goes back where a Delete recorded
// it stood (at), or at the end when no position was recorded (-1) or
// fewer keys stand now.
func (c *mapCopy[V]) restore(key int64, old V, at int) {
	if _, present := c.model[key]; !present {
		if at < 0 || at > len(c.order) {
			at = len(c.order)
		}
		c.order = slices.Insert(c.order, at, key)
	}
	c.model[key] = old
}

func (c *mapCopy[V]) set(key int64, v V) {
	if old, present := c.model[key]; present {
		c.logged(func() { c.restore(key, old, -1) })
	} else {
		c.logged(func() { c.drop(key) })
		c.order = append(c.order, key)
	}
	c.m.Set(key, v)
	c.model[key] = v
}

func (c *mapCopy[V]) delete(key int64) {
	if old, present := c.model[key]; present {
		at := c.drop(key)
		c.logged(func() { c.restore(key, old, at) })
	}
	c.m.Delete(key)
}

func (c *mapCopy[V]) checkpoint() {
	c.s.Checkpoint()
	c.undo = c.undo[:0]
}

func (c *mapCopy[V]) rollback() {
	c.s.Rollback()
	c.undoModel()
}

func (c *mapCopy[V]) undoModel() {
	for k := len(c.undo) - 1; k >= 0; k-- {
		c.undo[k]()
	}
	c.undo = c.undo[:0]
}

// recover is core's restart: a Clone of the store receives its undo log
// and rolls it back. The copy returned is the clone; c keeps its state
// and no longer has a log.
func (c *mapCopy[V]) recover() *mapCopy[V] {
	clone := c.s.Clone()
	c.s.TransferLog(clone)
	model, order := maps.Clone(c.model), slices.Clone(c.order)
	c.undoModel()
	d := c.fork(clone)
	c.model, c.order = model, order
	d.s.Rollback()
	return d
}

// corrupt corrupts the map as Store.CorruptRandom would, and the model
// alike: the draws are replayed on a copy of r. A value corruptValue
// does not perturb is dropped instead. Under FullCopy the corruption is
// a logged Set or Delete.
func (c *mapCopy[V]) corrupt(r *sim.RNG) {
	replay := *r
	logged := c.s.mode == FullCopy && c.s.shouldLog()
	if !c.m.corrupt(r) {
		return
	}
	key := c.order[replay.Intn(len(c.order))]
	old := c.model[key]
	nv, ok := corruptValue(old, &replay)
	if !ok {
		at := c.drop(key)
		if logged {
			c.undo = append(c.undo, func() { c.restore(key, old, at) })
		}
		return
	}
	if logged {
		c.undo = append(c.undo, func() { c.restore(key, old, -1) })
	}
	c.model[key] = nv.(V)
}

// check holds c's map to its model: length, key order, every value by
// Get and by ForEach, no key the model lacks, and the store's rolling
// fingerprint and the map's encoding against a fresh store's.
func (c *mapCopy[V]) check(t *testing.T, what string) {
	t.Helper()
	if keys := keysOf(c.m); c.m.Len() != len(c.model) || !slices.Equal(keys, c.order) {
		t.Fatalf("%s: keys %v, model %v", what, keys, c.order)
	}
	for _, k := range c.order {
		if got, ok := c.m.Get(k); !ok || got != c.model[k] {
			t.Fatalf("%s: Get(%d) = %v, %v; model %v", what, k, got, ok, c.model[k])
		}
	}
	seen := 0
	c.m.ForEach(func(k int64, v V) bool {
		if k != c.order[seen] || v != c.model[k] {
			t.Fatalf("%s: ForEach pair %d is (%d, %v), model (%d, %v)", what, seen, k, v, c.order[seen], c.model[c.order[seen]])
		}
		seen++
		return true
	})
	for k := int64(-1); k <= c.space; k++ {
		if _, ok := c.model[k]; !ok {
			if _, found := c.m.Get(k); found {
				t.Fatalf("%s: Get(%d) finds a key the model lacks", what, k)
			}
		}
	}
	fresh := NewStore("shared", Baseline)
	fm := NewMap[int64, V](fresh, sharedName)
	for _, k := range c.order {
		fm.Set(k, c.model[k])
	}
	got, err := c.s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := fresh.Fingerprint(); got != want {
		t.Fatalf("%s: fingerprint %#x, a fresh store holding the model's %#x", what, got, want)
	}
	if !bytes.Equal(containerState(c.m), containerState(fm)) {
		t.Fatalf("%s: the map encodes to other bytes than a fresh map holding the model", what)
	}
}

// mapShape is what one run of the shared-map property test drives: the
// keys the map starts with, the keys set and deleted, and whether it also
// deletes runs of keys.
type mapShape struct {
	keys, space int64
	runs        bool
}

// TestPropertyClonedMapMatchesPlainMap drives random Set, Delete,
// checkpoint and Rollback, a recovery (Clone, TransferLog, Rollback),
// corruption, ForkClone, Clone and an image round trip over maps whose
// values corruptValue perturbs (int) and drops (rec). Every copy made
// along the way is driven on as well — sibling clones and clones of
// clones, a Clone taken with undo records in flight among them — so the
// pages they share are written by each of them. After every step every
// copy must equal its plain map and order, encode to the bytes and
// fingerprint to the hash of a fresh map holding them, and find no key
// the plain map lacks: no write reached a page another copy still reads.
// The pages runs start at five pages of keys and delete runs of them —
// across page boundaries, and most of the map, so that the slab compacts
// — and roll those deletes back, after a compaction and after sibling
// copies wrote the pages they shared.
func TestPropertyClonedMapMatchesPlainMap(t *testing.T) {
	small := mapShape{keys: 24, space: 40}
	paged := mapShape{keys: 5 * mapPageLen, space: 8 * mapPageLen, runs: true}
	intValue := func(r *sim.RNG) int { return r.Intn(1 << 20) }
	recValue := func(r *sim.RNG) rec { return rec{EP: int64(r.Intn(50)), Name: "record"} }
	t.Run("int", func(t *testing.T) { driveSharedMaps(t, small, intValue) })
	t.Run("rec", func(t *testing.T) { driveSharedMaps(t, small, recValue) })
	t.Run("int-pages", func(t *testing.T) { driveSharedMaps(t, paged, intValue) })
	t.Run("rec-pages", func(t *testing.T) { driveSharedMaps(t, paged, recValue) })
}

func driveSharedMaps[V comparable](t *testing.T, shape mapShape, value func(*sim.RNG) V) {
	for seed := uint64(1); seed <= 6; seed++ {
		mode := []Instrumentation{Optimized, Unoptimized, FullCopy}[seed%3]
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := sim.NewRNG(seed)
			first := newMapCopy(NewStore("shared", mode), map[int64]V{}, nil, shape.space)
			for k := int64(0); k < shape.keys; k++ {
				first.set(k, value(r))
			}
			first.checkpoint()
			copies := []*mapCopy[V]{first}
			ops := 20
			if shape.runs {
				ops = 22
			}
			for step := 0; step < 400; step++ {
				c := copies[r.Intn(len(copies))]
				var what string
				switch op := r.Intn(ops); {
				case op < 6:
					key := int64(r.Intn(int(shape.space)))
					what = fmt.Sprintf("Set(%d)", key)
					c.set(key, value(r))
				case op < 9:
					key := int64(r.Intn(int(shape.space)))
					if len(c.order) > 0 && r.Intn(4) > 0 {
						key = c.order[r.Intn(len(c.order))]
					}
					what = fmt.Sprintf("Delete(%d)", key)
					c.delete(key)
				case op < 10:
					what = "Checkpoint"
					c.checkpoint()
				case op < 12:
					what = "Rollback"
					c.rollback()
				case op < 13:
					what = "recovery"
					copies = append(copies, c.recover())
				case op < 15 && len(c.order) > 0:
					what = "corrupt"
					c.corrupt(r)
				case op < 16:
					what = "ForkClone"
					c.checkpoint()
					copies = append(copies, c.fork(c.s.ForkClone()))
				case op < 18:
					what = "Clone"
					copies = append(copies, c.fork(c.s.Clone()))
				case op < 19:
					what = "image round trip"
					c.checkpoint()
					img, err := encodeStore(c.s)
					if err != nil {
						t.Fatalf("step %d: encode: %v", step, err)
					}
					s, err := decodeStore(wire.NewDecoder(img))
					if err != nil {
						t.Fatalf("step %d: decode: %v", step, err)
					}
					d := c.fork(s)
					if err := s.FinishDecode(); err != nil {
						t.Fatalf("step %d: FinishDecode: %v", step, err)
					}
					if again, _ := encodeStore(s); !bytes.Equal(again, img) {
						t.Fatalf("step %d: a decoded store encodes to other bytes", step)
					}
					copies = append(copies, d)
				case op < 20:
					what = "Fingerprint"
				case op < 21:
					// A run of keys in insertion order, from a page
					// boundary or across one.
					from := r.Intn(len(c.order)+1) &^ mapPageMask
					if r.Intn(2) == 0 && from >= 2 {
						from -= 2
					}
					n := min(1+r.Intn(mapPageLen+4), len(c.order)-from)
					what = fmt.Sprintf("delete keys %d to %d", from, from+n)
					for _, key := range slices.Clone(c.order[from : from+n]) {
						c.delete(key)
					}
				default:
					what = "delete most keys"
					for _, key := range slices.Clone(c.order) {
						if r.Intn(4) > 0 {
							c.delete(key)
						}
					}
				}
				if len(copies) > 5 {
					k := r.Intn(len(copies))
					copies = append(copies[:k], copies[k+1:]...)
				}
				for k, other := range copies {
					other.check(t, fmt.Sprintf("step %d (%s), copy %d", step, what, k))
				}
			}
		})
	}
}
