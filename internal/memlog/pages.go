package memlog

import (
	"slices"

	"repro/internal/wire"
)

// A pageTable is the one copy-on-write page table under every paged
// container — a Slice's elements, a Map's slab and a Map's index — and
// the paged-container rule of DESIGN.md §7 is its contract:
//
//   - A clone shares the table (share), and neither side owns it then:
//     the first write to either copies it (write), and the copy owns no
//     page. The ownership bits in a table speak only for its owner.
//   - A page is owned or shared. The first write that lands on a shared
//     page copies it (mine, copy); what a reader is lent of a page is
//     read-only and valid until the next write.
//
// A holder that owns nothing — a capture's container — is therefore only
// read, and concurrent forks of it do not race. E is the element of a
// page, X what the kind of container keeps beside each page: a Slice its
// fingerprint mix, a Map's slab its live mask, a Map's index nothing.
type pageTable[E any, X comparable] struct {
	tab []page[E, X]
	// owned marks tab as this holder's alone.
	owned bool
}

// page is one entry of a page table. Its elements are what the container
// holds there: their length is the page's, their capacity the room it
// has to grow in place.
type page[E any, X comparable] struct {
	elems []E
	x     X
	// owned marks a page only this table points to, which its owner may
	// write in place.
	owned bool
}

// share returns a table that shares this one, which this holder then no
// longer owns. A holder that does not own it is only read.
func (t *pageTable[E, X]) share() pageTable[E, X] {
	if t.owned {
		t.owned = false
	}
	return pageTable[E, X]{tab: t.tab}
}

// write makes the table its holder's own before it writes an entry: a
// copy that owns none of the pages, with room for one more, unless the
// holder owns it already.
func (t *pageTable[E, X]) write() {
	if t.owned {
		return
	}
	var tab []page[E, X]
	if len(t.tab) > 0 {
		tab = make([]page[E, X], len(t.tab), len(t.tab)+1)
		for i, pg := range t.tab {
			tab[i] = page[E, X]{elems: pg.elems, x: pg.x}
		}
	}
	t.tab, t.owned = tab, true
}

// at returns entry i of the holder's own table, to write its per-page
// data or its length; never its elements (mine, copy).
func (t *pageTable[E, X]) at(i int) *page[E, X] {
	t.write()
	return &t.tab[i]
}

// mine returns page i to write in place, with room for need elements,
// when the holder owns the table and the page and the page has that
// room; nil when the page must be copied first (copy). It is the whole
// of a write to an owned page, small enough to inline: a write pays a
// call only when it copies.
func (t *pageTable[E, X]) mine(i, need int) *page[E, X] {
	if pg := &t.tab[i]; t.owned && pg.owned && cap(pg.elems) >= need {
		return pg
	}
	return nil
}

// copy makes the table its holder's own, then page i, into room
// elements of capacity, and returns the page to write.
func (t *pageTable[E, X]) copy(i, room int) *page[E, X] {
	pg := t.at(i)
	pg.elems, pg.owned = append(make([]E, 0, room), pg.elems...), true
	return pg
}

// add appends the pages of backing's capacity, per elements of it each,
// owned and holding the first n elements, each with x beside it.
func (t *pageTable[E, X]) add(backing []E, n, per int, x X) {
	backing = backing[:cap(backing)]
	t.write()
	t.tab = slices.Grow(t.tab, (len(backing)+per-1)/per)
	for off := 0; off < len(backing); off += per {
		end := min(off+per, len(backing))
		t.tab = append(t.tab, page[E, X]{elems: backing[off:min(max(n, off), end):end], x: x, owned: true})
	}
}

// cut keeps the first n pages. A table the holder does not own is cut
// as a view, which the next write copies.
func (t *pageTable[E, X]) cut(n int) {
	if !t.owned {
		t.tab = t.tab[:n:n]
		return
	}
	clear(t.tab[n:])
	t.tab = t.tab[:n]
}

// reshare is a capture's page rule: each page of this table that is not
// prev's page at the same place, but holds as many elements whose
// contents — as code walks them, compared through x — are exactly that
// page's, becomes prev's page again, per-page data and all. prev is the
// table of the container's copy in the previous capture, which it only
// reads. A page that is prev's but has other per-page data beside it
// keeps its own: a Slice's mix there is one of the same elements, and a
// Map's live mask there makes another map. When this table ends up
// holding exactly prev's pages and data, it shares prev's table.
func (t *pageTable[E, X]) reshare(prev *pageTable[E, X], x *sameScratch, code func(*wire.Codec, *page[E, X])) {
	all := len(t.tab) == len(prev.tab)
	for i := range min(len(t.tab), len(prev.tab)) {
		a, b := &t.tab[i], &prev.tab[i]
		switch {
		case samePage(a.elems, b.elems):
			all = all && a.x == b.x
			continue
		case len(a.elems) != len(b.elems):
			all = false
			continue
		}
		code(x.a.restart(), a)
		code(x.b.restart(), b)
		if !x.same() {
			all = false
			continue
		}
		*t.at(i) = page[E, X]{elems: b.elems, x: b.x}
	}
	if all {
		*t = pageTable[E, X]{tab: prev.tab}
	}
}

// samePage reports whether a and b are one page's elements.
func samePage[E any](a, b []E) bool {
	return len(a) == len(b) && cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}
