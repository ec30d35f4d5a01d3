package memlog

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// pagedName is the container the paged-slice property test drives.
const pagedName = "frames"

// pagedCopy is one store of the property test with the plain []int32 its
// slice must equal, and the model of its undo log: what a rollback must
// do to the plain slice, newest last.
type pagedCopy struct {
	s     *Store
	sl    *Slice[int32]
	model []int32
	made  bool // the slice has ever been non-nil (its image head)
	undo  []func()
}

func newPagedCopy(s *Store, model []int32, made bool) *pagedCopy {
	s.SetLogging(true)
	return &pagedCopy{s: s, sl: NewSlice[int32](s, pagedName), model: model, made: made}
}

// logged records the model's undo of an operation the store logs.
func (c *pagedCopy) logged(undo func()) {
	if c.s.shouldLog() {
		c.undo = append(c.undo, undo)
	}
}

func (c *pagedCopy) set(i int, v int32) {
	old := c.model[i]
	c.logged(func() { c.model[i] = old })
	c.sl.Set(i, v)
	c.model[i] = v
}

func (c *pagedCopy) grow(n int, fill func(int) int32) {
	for k := 0; k < n; k++ {
		c.logged(func() { c.model = c.model[:len(c.model)-1] })
	}
	if fill == nil {
		c.sl.Grow(n)
		c.model = append(c.model, make([]int32, n)...)
	} else {
		for k := 0; k < n; k++ {
			v := fill(k)
			c.sl.Append(v)
			c.model = append(c.model, v)
		}
	}
	c.made = c.made || n > 0
}

func (c *pagedCopy) checkpoint() {
	c.s.Checkpoint()
	c.undo = c.undo[:0]
}

func (c *pagedCopy) rollback() {
	c.s.Rollback()
	for k := len(c.undo) - 1; k >= 0; k-- {
		c.undo[k]()
	}
	c.undo = c.undo[:0]
}

// corrupt corrupts the slice as Store.CorruptRandom would, and the model
// alike: the draws are replayed on a copy of r. Under FullCopy the
// corruption is a logged Set.
func (c *pagedCopy) corrupt(r *sim.RNG) {
	replay := *r
	logged := c.s.mode == FullCopy && c.s.shouldLog()
	if !c.sl.corrupt(r) {
		return
	}
	i := replay.Intn(len(c.model))
	nv, _ := corruptValue(c.model[i], &replay)
	if logged {
		old := c.model[i]
		c.undo = append(c.undo, func() { c.model[i] = old })
	}
	c.model[i] = nv.(int32)
}

// encoded returns the store's image; the store must be quiescent.
func (c *pagedCopy) encoded(t *testing.T) []byte {
	t.Helper()
	img, err := encodeStore(c.s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return img
}

// decoded returns the store img decodes to, materialized.
func decodedPaged(t *testing.T, img []byte) *Store {
	t.Helper()
	s, err := decodeStore(wire.NewDecoder(img))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	NewSlice[int32](s, pagedName)
	if err := s.FinishDecode(); err != nil {
		t.Fatalf("FinishDecode: %v", err)
	}
	return s
}

// makeEmpty leaves the empty slice sl made, as an Append that a rollback
// took back does.
func makeEmpty[T any](sl *Slice[T]) {
	var zero T
	sl.push(zero)
	sl.cut(0)
	sl.touch()
}

// modelFingerprint is the fingerprint of a fresh store whose slice holds
// model: every page of it hashed for the first time.
func modelFingerprint(t *testing.T, model []int32, made bool) uint64 {
	t.Helper()
	s := NewStore("paged", Baseline)
	sl := NewSlice[int32](s, pagedName)
	if made && len(model) == 0 {
		makeEmpty(sl)
	}
	for _, v := range model {
		sl.Append(v)
	}
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// check holds c's slice to its model: length, every element by Get and
// by PageFrom, and the store's rolling fingerprint against a fresh one.
func (c *pagedCopy) check(t *testing.T, what string) {
	t.Helper()
	if c.sl.Len() != len(c.model) {
		t.Fatalf("%s: Len %d, model %d", what, c.sl.Len(), len(c.model))
	}
	for i, want := range c.model {
		if got := c.sl.Get(i); got != want {
			t.Fatalf("%s: Get(%d) = %d, model %d", what, i, got, want)
		}
	}
	for base := 0; base < len(c.model); {
		page := c.sl.PageFrom(base)
		if len(page) == 0 || !slices.Equal(page, c.model[base:base+len(page)]) {
			t.Fatalf("%s: PageFrom(%d) differs from the model", what, base)
		}
		base += len(page)
	}
	got, err := c.s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if want := modelFingerprint(t, c.model, c.made); got != want {
		t.Fatalf("%s: fingerprint %#x, a fresh store holding the model's %#x", what, got, want)
	}
}

// TestPropertyPagedSliceMatchesPlainSlice drives random Set, Append,
// bulk append (Grow), checkpoint and Rollback, corruption,
// ForkClone, Clone and an image round trip over slices of several pages
// with a partial last one. Every copy made along the way is driven on
// as well, so the pages they share are written by each of them. After
// every step every copy must equal its plain []int32 model — so no write
// reached a page another copy still reads — and its rolling fingerprint
// must equal a fresh store's, so every page a step changed was hashed
// again. An image round trip must give the same bytes again and a store
// whose first fingerprint is the original's.
func TestPropertyPagedSliceMatchesPlainSlice(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		mode := []Instrumentation{Optimized, Unoptimized, FullCopy}[seed%3]
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := sim.NewRNG(seed)
			first := newPagedCopy(NewStore("paged", mode), nil, false)
			first.grow(2*slicePageLen+300, func(k int) int32 { return int32(k % 7) })
			first.checkpoint()
			copies := []*pagedCopy{first}
			for step := 0; step < 300; step++ {
				c := copies[r.Intn(len(copies))]
				n := len(c.model)
				var what string
				switch op := r.Intn(18); {
				case op < 6 && n > 0:
					i := r.Intn(n)
					what = fmt.Sprintf("Set(%d)", i)
					c.set(i, int32(r.Intn(1<<20)))
				case op < 8:
					what = "Append"
					c.grow(1, func(int) int32 { return int32(r.Intn(100)) })
				case op < 10:
					k := r.Intn(2 * slicePageLen)
					what = fmt.Sprintf("Grow(%d)", k)
					c.grow(k, nil)
				case op < 11:
					what = "Checkpoint"
					c.checkpoint()
				case op < 13:
					what = "Rollback"
					c.rollback()
				case op < 14 && n > 0:
					what = "corrupt"
					c.corrupt(r)
				case op < 15:
					what = "ForkClone"
					c.checkpoint()
					copies = append(copies, newPagedCopy(c.s.ForkClone(), slices.Clone(c.model), true))
				case op < 16:
					what = "Clone"
					copies = append(copies, newPagedCopy(c.s.Clone(), slices.Clone(c.model), true))
				case op < 17:
					what = "image round trip"
					c.checkpoint()
					img := c.encoded(t)
					want, err := c.s.Fingerprint()
					if err != nil {
						t.Fatal(err)
					}
					d := newPagedCopy(decodedPaged(t, img), slices.Clone(c.model), c.made)
					if got, err := d.s.Fingerprint(); err != nil || got != want {
						t.Fatalf("step %d: a decoded store's first fingerprint %#x (%v), the store's %#x", step, got, err, want)
					}
					if again := d.encoded(t); !bytes.Equal(again, img) {
						t.Fatalf("step %d: a decoded store encodes to other bytes", step)
					}
					copies = append(copies, d)
				default:
					what = "Fingerprint"
				}
				if len(copies) > 4 {
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
