package kdtree

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Page geometry. A node page holds pageLen node records and their boxMax
// rows; an id page holds idPageLen id-table entries. An entry is 16 bytes
// against a node's 48 + 8·dim, so id pages hold 8× the entries to keep the
// two kinds of page near the same size. pageShift is the one tuning
// constant; CHANGES.md records the sweep that chose it.
const (
	pageShift   = 7
	pageLen     = 1 << pageShift
	pageMask    = pageLen - 1
	idPageShift = pageShift + 3
	idPageLen   = 1 << idPageShift
	idPageMask  = idPageLen - 1
)

// page is one fixed-size block of the view-visible arena state: pageLen
// node records and their boxMax rows (boxMax[i*dim:(i+1)*dim] belongs to
// nodes[i]). gen is the tree generation that created the page: a page whose
// gen is older than the tree's was created before the newest View and may be
// shared with it, so the writer clones it before the first write (see
// Tree.ownPage). The boxMax array has a generation of its own, boxGen: a
// page clone copies the node records but keeps sharing the array, which the
// writer clones only when it writes a row (Tree.ownBoxMax). Tombstones and
// most inserts along a path never raise a box maximum, so most clones copy
// no bounds. boxGen <= gen, and a page whose gen is older than the tree's
// has both older. boxMax comes first so the collector scans only the slice
// header, not the pointer-free node array.
type page struct {
	boxMax []float64
	boxGen uint64
	gen    uint64
	nodes  [pageLen]node
}

// node returns slot idx's record for reading.
func (a *arena) node(idx int32) *node {
	return &a.pages[idx>>pageShift].nodes[idx&pageMask]
}

// boxMaxRow returns slot idx's boxMax row for reading.
func (a *arena) boxMaxRow(idx int32) []float64 {
	off := int(idx&pageMask) * a.dim
	return a.pages[idx>>pageShift].boxMax[off : off+a.dim]
}

// ownPage returns the page holding slot idx, first replacing it with a
// private clone of its node records when a View may share it; the clone
// still shares the boxMax array (see ownBoxMax). Pointers into the page
// obtained before the call may point into the shared original afterwards.
func (t *Tree) ownPage(idx int32) *page {
	pg := t.pages[idx>>pageShift]
	if pg.gen != t.gen {
		c := *pg
		c.gen = t.gen
		pg = &c
		t.pages[idx>>pageShift] = pg
	}
	return pg
}

// ownBoxMax gives pg, a page the writer owns, a private boxMax array when a
// View may share the current one. Rows obtained before the call may point
// into the shared original afterwards.
func (t *Tree) ownBoxMax(pg *page) {
	if pg.boxGen != t.gen {
		pg.boxMax = slices.Clone(pg.boxMax)
		pg.boxGen = t.gen
	}
}

// nodeW returns slot idx's record for writing.
func (t *Tree) nodeW(idx int32) *node {
	return &t.ownPage(idx).nodes[idx&pageMask]
}

// boxMaxW returns slot idx's boxMax row for writing.
func (t *Tree) boxMaxW(idx int32) []float64 {
	pg := t.ownPage(idx)
	t.ownBoxMax(pg)
	off := int(idx&pageMask) * t.dim
	return pg.boxMax[off : off+t.dim]
}

// idIndex maps each live id to its arena slot: an open-addressing table
// with linear probing and backward-shift deletion, so it never holds
// tombstones. Ids are hashed under a per-tree random seed, as Go maps do, so
// ids chosen by a client cannot line up into long probe chains. Its entries
// live in pages under the same rule as the node pages: a View copies the
// page table, and the writer clones a page older than the tree's generation
// before writing to it. The load factor stays at most 1/2.
type idIndex struct {
	pages []*idPage
	mask  uint64 // capacity-1; the capacity is a power of two
	count int
	seed  [2]uint64
}

// idPage is one block of idPageLen table entries; gen as in page.
type idPage struct {
	gen  uint64
	ents [idPageLen]idEntry
}

// idEntry is one table entry; ref 0 marks it empty.
type idEntry struct {
	id  int
	ref int32 // arena slot + 1
}

// newIDIndex returns an empty table with room for n ids. The seed only
// decides where ids sit in the table; no answer depends on it (queries
// break ties by id, and Points callers sort).
func newIDIndex(n int, gen uint64) idIndex {
	x := idIndex{seed: [2]uint64{rand.Uint64(), rand.Uint64() | 1}}
	x.alloc(n, gen)
	return x
}

// alloc replaces the table with fresh empty pages sized for n ids and
// returns the old pages.
func (x *idIndex) alloc(n int, gen uint64) []*idPage {
	old := x.pages
	c := idPageLen
	for c < 2*n {
		c *= 2
	}
	x.pages = make([]*idPage, c>>idPageShift)
	for i := range x.pages {
		x.pages[i] = &idPage{gen: gen}
	}
	x.mask = uint64(c - 1)
	x.count = 0
	return old
}

// clone returns a copy that shares every page; the caller must advance the
// generation so the writer stops writing to them.
func (x *idIndex) clone() idIndex {
	c := *x
	c.pages = slices.Clone(x.pages)
	return c
}

// home returns the table position id hashes to.
func (x *idIndex) home(id int) uint64 {
	hi, lo := bits.Mul64(uint64(id)^x.seed[0], x.seed[1])
	return (hi ^ lo) & x.mask
}

// at returns entry i for reading.
func (x *idIndex) at(i uint64) *idEntry {
	return &x.pages[i>>idPageShift].ents[i&idPageMask]
}

// own returns entry i for writing, cloning its page when it is older than
// gen.
func (x *idIndex) own(i uint64, gen uint64) *idEntry {
	pg := x.pages[i>>idPageShift]
	if pg.gen != gen {
		c := *pg
		c.gen = gen
		pg = &c
		x.pages[i>>idPageShift] = pg
	}
	return &pg.ents[i&idPageMask]
}

// find returns the slot of id and whether id is in the table.
func (x *idIndex) find(id int) (int32, bool) {
	for i := x.home(id); ; i = (i + 1) & x.mask {
		e := x.at(i)
		if e.ref == 0 {
			return 0, false
		}
		if e.id == id {
			return e.ref - 1, true
		}
	}
}

// put maps id to slot, replacing any previous mapping.
func (x *idIndex) put(id int, slot int32, gen uint64) {
	if 2*(x.count+1) > len(x.pages)*idPageLen {
		for _, pg := range x.alloc(x.count+1, gen) {
			for _, e := range pg.ents {
				if e.ref != 0 {
					x.put(e.id, e.ref-1, gen)
				}
			}
		}
	}
	for i := x.home(id); ; i = (i + 1) & x.mask {
		e := x.at(i)
		if e.ref == 0 || e.id == id {
			if e.ref == 0 {
				x.count++
			}
			*x.own(i, gen) = idEntry{id: id, ref: slot + 1}
			return
		}
	}
}

// remove deletes id if present. Later entries of the probe run shift back
// into the hole, so lookups stay tombstone-free.
func (x *idIndex) remove(id int, gen uint64) {
	i := x.home(id)
	for ; ; i = (i + 1) & x.mask {
		e := x.at(i)
		if e.ref == 0 {
			return
		}
		if e.id == id {
			break
		}
	}
	x.count--
	for j := (i + 1) & x.mask; ; j = (j + 1) & x.mask {
		e := x.at(j)
		if e.ref == 0 {
			break
		}
		// e may fill the hole at i unless its home lies cyclically in (i, j].
		if (j-x.home(e.id))&x.mask >= (j-i)&x.mask {
			*x.own(i, gen) = *e
			i = j
		}
	}
	*x.own(i, gen) = idEntry{}
}
