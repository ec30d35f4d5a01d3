package memlog

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// pageShape is one kind of page the page-table property test drives:
// pages of per elements, a draw of an element, a draw of the per-page
// data for a page's elements, and how a capture compares two pages.
// content marks per-page data that is part of the contents (a live mask)
// rather than a cache of them (a mix).
type pageShape[E comparable, X comparable] struct {
	per     int
	elem    func(r *sim.RNG) E
	data    func(elems []E, r *sim.RNG) X
	code    func(*wire.Codec, *page[E, X])
	content bool
}

// sharer is one holder of a page table in the property test, with the
// plain pages and per-page data it must hold. A frozen sharer is a
// capture's: nothing writes it.
type sharer[E comparable, X comparable] struct {
	pt     pageTable[E, X]
	elems  [][]E
	xs     []X
	frozen bool
}

// copyOf returns a sharer that shares h's table and holds a copy of its
// model.
func (h *sharer[E, X]) copyOf(frozen bool) *sharer[E, X] {
	c := &sharer[E, X]{pt: h.pt.share(), xs: slices.Clone(h.xs), frozen: frozen}
	for _, e := range h.elems {
		c.elems = append(c.elems, slices.Clone(e))
	}
	return c
}

// The page table under Slice and Map, driven alone: random share,
// capture, write, grow, truncate, data refresh and re-share steps over
// many sharers, each held to plain pages of its own after every step. A
// write through one sharer that shows through another, or a re-share
// that takes a page whose contents or length differ, fails it. The int32
// shape's per-page data is a mix that collides on purpose: a re-share
// that trusts it adopts pages that differ. The slab shape's live mask
// leaves the slots past it out of the contents: a re-share that does not
// compare lengths adopts a page of another length.
func TestPropertyPageTableMatchesPlainPages(t *testing.T) {
	t.Run("int32 pages, mixed", func(t *testing.T) {
		runPageTable(t, pageShape[int32, sliceMix]{
			per:  4,
			elem: func(r *sim.RNG) int32 { return int32(r.Intn(2)) },
			data: func(elems []int32, r *sim.RNG) sliceMix {
				if r.Intn(2) == 0 {
					return sliceMix{stale: true}
				}
				return sliceMix{mix: uint64(len(elems) % 2)}
			},
			code: codeSlicePage[int32],
		})
	})
	t.Run("slab entries, live mask", func(t *testing.T) {
		runPageTable(t, pageShape[mapEntry[int64, int64], uint32]{
			per: 4,
			elem: func(r *sim.RNG) mapEntry[int64, int64] {
				return mapEntry[int64, int64]{key: int64(r.Intn(2)), val: int64(r.Intn(2))}
			},
			data:    func(elems []mapEntry[int64, int64], r *sim.RNG) uint32 { return uint32(r.Intn(1 << len(elems))) },
			code:    codeSlabPage[int64, int64],
			content: true,
		})
	})
}

func runPageTable[E comparable, X comparable](t *testing.T, sh pageShape[E, X]) {
	var x sameScratch
	reshared, adopted := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRNG(seed)
		all := []*sharer[E, X]{{pt: pageTable[E, X]{owned: true}}}
		pick := func(frozen bool) *sharer[E, X] {
			var from []*sharer[E, X]
			for _, h := range all {
				if h.frozen == frozen {
					from = append(from, h)
				}
			}
			if len(from) == 0 {
				return nil
			}
			return from[r.Intn(len(from))]
		}
		for step := 0; step < 300; step++ {
			h := pick(false)
			op := r.Intn(8)
			switch {
			case op == 0 && len(all) < 12:
				all = append(all, h.copyOf(false))
			case op == 1 && len(all) < 12:
				all = append(all, h.copyOf(true))
			case op == 2 && len(h.elems) > 0:
				p := r.Intn(len(h.elems))
				if len(h.elems[p]) == 0 {
					break
				}
				j, v := r.Intn(len(h.elems[p])), sh.elem(r)
				pg := h.pt.mine(p, 0)
				if pg == nil {
					pg = h.pt.copy(p, sh.per)
				}
				pg.elems[j], h.elems[p][j] = v, v
				pg.x = sh.data(pg.elems, r)
				h.xs[p] = pg.x
			case op == 3:
				last := len(h.elems) - 1
				if last < 0 || len(h.elems[last]) == sh.per {
					k := 1 + r.Intn(2)
					n := r.Intn(k*sh.per + 1)
					h.pt.add(make([]E, k*sh.per), n, sh.per, *new(X))
					for off := 0; off < k*sh.per; off += sh.per {
						h.elems = append(h.elems, make([]E, min(max(n-off, 0), sh.per)))
						h.xs = append(h.xs, *new(X))
					}
					break
				}
				v := sh.elem(r)
				pg := h.pt.mine(last, len(h.elems[last])+1)
				if pg == nil {
					pg = h.pt.copy(last, sh.per)
				}
				pg.elems = append(pg.elems, v)
				h.elems[last] = append(h.elems[last], v)
			case op == 4 && len(h.elems) > 0:
				if r.Intn(2) == 0 {
					n := r.Intn(len(h.elems) + 1)
					h.pt.cut(n)
					h.elems, h.xs = h.elems[:n], h.xs[:n]
					break
				}
				last := len(h.elems) - 1
				k := r.Intn(len(h.elems[last]) + 1)
				pg := h.pt.at(last)
				pg.elems = pg.elems[:k]
				pg.x = sh.data(pg.elems, r)
				h.elems[last], h.xs[last] = h.elems[last][:k], pg.x
			case op == 5 && len(h.elems) > 0:
				p := r.Intn(len(h.elems))
				pg := h.pt.at(p)
				pg.x = sh.data(pg.elems, r)
				h.xs[p] = pg.x
			case op >= 6:
				prev := pick(true)
				if prev == nil {
					break
				}
				before := slices.Clone(h.pt.tab)
				h.pt.reshare(&prev.pt, &x, sh.code)
				if len(h.pt.tab) > 0 && samePage(h.pt.tab, prev.pt.tab) {
					adopted++
				}
				for i := range min(len(h.pt.tab), len(prev.pt.tab)) {
					if !samePage(h.pt.tab[i].elems, prev.pt.tab[i].elems) || samePage(before[i].elems, prev.pt.tab[i].elems) {
						continue
					}
					reshared++
					if len(h.elems[i]) != len(prev.elems[i]) {
						t.Fatalf("seed %d step %d: page %d re-shared, holding %d elements for %d", seed, step, i, len(prev.elems[i]), len(h.elems[i]))
					}
					if !sh.same(h.elems[i], h.xs[i], prev.elems[i], prev.xs[i]) {
						t.Fatalf("seed %d step %d: page %d re-shared, holding %v (%v) for %v (%v)", seed, step, i, prev.elems[i], prev.xs[i], h.elems[i], h.xs[i])
					}
					h.elems[i], h.xs[i] = slices.Clone(prev.elems[i]), prev.xs[i]
				}
			}
			for k, s := range all {
				if msg := s.check(sh); msg != "" {
					t.Fatalf("seed %d step %d op %d: sharer %d (frozen %v): %s", seed, step, op, k, s.frozen, msg)
				}
			}
		}
	}
	if reshared == 0 || adopted == 0 {
		t.Fatalf("%d pages re-shared, %d tables adopted: the walk tests less than it says", reshared, adopted)
	}
}

// check describes how h's table differs from its model, or returns "".
func (h *sharer[E, X]) check(sh pageShape[E, X]) string {
	if len(h.pt.tab) != len(h.elems) {
		return fmt.Sprintf("%d pages, want %d", len(h.pt.tab), len(h.elems))
	}
	for i, pg := range h.pt.tab {
		if !slices.Equal(pg.elems, h.elems[i]) || sh.content && pg.x != h.xs[i] {
			return fmt.Sprintf("page %d holds %v (%v), want %v (%v)", i, pg.elems, pg.x, h.elems[i], h.xs[i])
		}
	}
	return ""
}

// same reports whether two pages' contents walk alike, as a capture
// compares them.
func (sh pageShape[E, X]) same(a []E, ax X, b []E, bx X) bool {
	var x sameScratch
	sh.code(x.a.restart(), &page[E, X]{elems: a, x: ax})
	sh.code(x.b.restart(), &page[E, X]{elems: b, x: bx})
	return x.same()
}
