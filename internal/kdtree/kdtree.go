// Package kdtree implements the tuple index (TI) of Section III-C: a k-d
// tree (Bentley 1975) over the database supporting the query mix FD-RMS
// needs under a dynamic workload:
//
//   - TopK: the k tuples with the highest linear-utility score, found by
//     best-first branch-and-bound on per-node score upper bounds over each
//     subtree's box cut by its largest coordinate sum (valid because
//     coordinates and utility weights are nonnegative; see boxScoreUB);
//   - AtLeast: every tuple with score >= a threshold, which yields the
//     ε-approximate top-k set Φ_{k,ε};
//   - Insert and Delete with tombstoning and automatic rebuilds.
//
// # Arena layout
//
// Nodes live in an arena, not a pointer graph: children are int32 slot
// indices, and the per-node data the query inner loops stream — subtree
// box rows and the point coordinates — sit in float64 arrays
// (structure-of-arrays), so boxScoreUB and the score evaluation read
// contiguous memory instead of chasing heap pointers. A node's box row is
// 2·dim+1 floats: the subtree's coordinate maxima, its minima, and the
// largest coordinate sum of its points. The queries bound scores with all
// three, and the writer reads them to steer tombstone searches. The state a
// View reads and the writer changes in place — the node records and the box
// rows — lives in fixed-size pages behind a page table (page.go); the point
// payload and the flat coordinates are append-only between rebuilds and
// stay flat. An id → slot table (idIndex) answers Contains and PointByID
// and lives in pages of its own. Taking a View copies the two page tables
// and advances the tree's generation; the writer clones an older page the
// first time it writes to it, so a commit copies the pages it touched, not
// the tree. A node page's box array carries a generation of its own and is
// cloned only when a row of it is written, so a tombstone, which rewrites
// counts and epochs but never a bound, copies node records alone. The
// branch-and-bound frontier and the result ranking use typed inline heaps
// backed by caller-owned QueryScratch buffers (see scratch.go): a warmed-up
// TopKInto/AtLeastInto query performs zero allocations, and the scratch
// counts the nodes its queries expand (QueryScratch.Nodes).
//
// # Epoch versioning
//
// Every mutation advances the tree's epoch: nodes carry the epoch of their
// insertion and (for tombstones) of their deletion, so a point is visible
// as of epoch e when ins <= e < del. The At-suffixed queries (TopKAtInto,
// AtLeastAtInto, KthScoreAtInto, PointByIDAt) evaluate against the
// database as it stood after the mutation that produced epoch e, while the
// plain methods read the present. Historic reads need the relevant
// tombstones to still be physically present, which a retain window
// guarantees: between BeginRetain and EndRetain no tombstone is compacted
// (rebuilds are deferred and the defensive rebuild keeps retained
// tombstones), so reads at any epoch >= the BeginRetain epoch are exact.
// This is how the batched delete path of internal/topk replays a whole run
// of deletions in one parallel phase: the run is tombstoned up front and
// every worker requeries at its operation's epoch. Within one retain window
// each id may be deleted at most once (the batch pipeline guarantees this);
// reads at epochs before the window observe the present database instead.
package kdtree

import (
	"slices"

	"fdrms/internal/geom"
)

// nilNode marks an absent child in the arena.
const nilNode = int32(-1)

// node is the scalar metadata of one arena slot. The fields the query inner
// loops stream over many nodes — box rows and point coordinates — live in
// strided arrays instead (structure-of-arrays).
type node struct {
	left, right int32
	axis        int32
	deleted     bool
	ins, del    uint64 // insertion / deletion epoch (del valid when deleted)
	maxDel      uint64 // max deletion epoch over the subtree (0: none)
	liveCount   int32
}

// arena is the node storage the score queries read: slot i of every array
// describes the same node. Node records and box rows sit in pages (see
// page.go); coords is a flat dim-strided copy of the points' coordinates
// (slot i occupies [i*dim, (i+1)*dim)), so the score computation streams
// contiguous float64s. len(pts) is the number of slots in use. The query
// methods live on arena so a Tree (mutable, reading the present) and a View
// (immutable, pinned to one epoch) share one implementation.
type arena struct {
	dim    int
	pages  []*page
	pts    []geom.Point // node payload, returned in Results
	coords []float64    // flat copy of pts[i].Coords (hot score path)
	root   int32
}

// Tree is a dynamic k-d tree over points in R^d.
type Tree struct {
	arena
	ids     idIndex // live id → slot
	removed int

	recScratch []rec // reusable rebuild record buffer

	epoch       uint64 // advanced by every Insert and effective Delete
	retaining   bool
	retainFloor uint64        // epoch at BeginRetain (valid when retaining)
	graveyard   map[int]grave // retained tombstones by id (only while retaining)

	// gen is the page generation. View() advances it, so every page and
	// array stamped with an older generation may be shared with a view and
	// must not be written in place.
	gen uint64
	// flatGen is the generation in which pts and coords were allocated. When
	// it is older than gen, a view aliases their prefix, so the next rebuild
	// moves them to fresh backing arrays instead of compacting in place.
	flatGen uint64
}

// grave is the by-id record of a tombstone kept alive by a retain window.
type grave struct {
	p        geom.Point
	ins, del uint64
}

// rec is one point record handed to build: a live point or, during a
// retaining rebuild, a tombstone that must survive compaction.
type rec struct {
	p        geom.Point
	ins, del uint64
	deleted  bool
}

// New builds a balanced tree over pts by recursive median split.
// The input slice is not modified.
func New(dim int, pts []geom.Point) *Tree {
	t := &Tree{arena: arena{dim: dim, root: nilNode}, ids: newIDIndex(len(pts), 0)}
	recs := make([]rec, len(pts))
	for i, p := range pts {
		recs[i] = rec{p: p}
	}
	t.growArena(len(recs))
	t.root = t.build(recs, 0)
	return t
}

// growArena reserves flat-array capacity for n more nodes.
func (t *Tree) growArena(n int) {
	t.pts = slices.Grow(t.pts, n)
	t.coords = slices.Grow(t.coords, n*t.dim)
}

// pushNode appends one node to the arena with its box initialized to the
// point itself and no children, and maps a live node's id to its slot;
// liveCount/maxDel are set by refreshBounds.
func (t *Tree) pushNode(r rec, axis int) int32 {
	idx := int32(len(t.pts))
	if int(idx>>pageShift) == len(t.pages) {
		t.pages = append(t.pages, &page{box: make([]float64, pageLen*rowLen(t.dim)), boxGen: t.gen, gen: t.gen})
	}
	*t.nodeW(idx) = node{
		left: nilNode, right: nilNode, axis: int32(axis),
		deleted: r.deleted, ins: r.ins, del: r.del,
	}
	t.pointRow(t.boxW(idx), r.p.Coords)
	t.pts = append(t.pts, r.p)
	t.coords = append(t.coords, r.p.Coords...)
	if !r.deleted {
		t.ids.put(r.p.ID, idx, t.gen)
	}
	return idx
}

// build constructs a subtree over recs (recursive median split on axis),
// appending nodes to the arena, and returns the subtree root's index.
func (t *Tree) build(recs []rec, axis int) int32 {
	if len(recs) == 0 {
		return nilNode
	}
	mid := len(recs) / 2
	selectKth(recs, mid, axis)
	idx := t.pushNode(recs[mid], axis)
	next := (axis + 1) % t.dim
	// The recursion may clone or add pages: write children through the
	// index, never through a held pointer.
	l := t.build(recs[:mid], next)
	r := t.build(recs[mid+1:], next)
	n := t.nodeW(idx)
	n.left, n.right = l, r
	t.refreshBounds(idx)
	return idx
}

// selectKth partially sorts recs so recs[k] is the k-th smallest on axis
// (quickselect with median-of-three pivoting).
func selectKth(recs []rec, k, axis int) {
	lo, hi := 0, len(recs)-1
	for lo < hi {
		// Median-of-three pivot.
		mid := (lo + hi) / 2
		if recs[mid].p.Coords[axis] < recs[lo].p.Coords[axis] {
			recs[mid], recs[lo] = recs[lo], recs[mid]
		}
		if recs[hi].p.Coords[axis] < recs[lo].p.Coords[axis] {
			recs[hi], recs[lo] = recs[lo], recs[hi]
		}
		if recs[hi].p.Coords[axis] < recs[mid].p.Coords[axis] {
			recs[hi], recs[mid] = recs[mid], recs[hi]
		}
		pivot := recs[mid].p.Coords[axis]
		i, j := lo, hi
		for i <= j {
			for recs[i].p.Coords[axis] < pivot {
				i++
			}
			for recs[j].p.Coords[axis] > pivot {
				j--
			}
			if i <= j {
				recs[i], recs[j] = recs[j], recs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// pointRow writes the box row of the single point c into row.
func (t *Tree) pointRow(row, c []float64) {
	d := t.dim
	copy(row[:d], c)
	copy(row[d:2*d], c)
	row[2*d] = rowSum(c)
}

// refreshBounds recomputes the box row, liveCount and maxDel of slot idx
// from its point and children.
func (t *Tree) refreshBounds(idx int32) {
	n := t.nodeW(idx)
	d := t.dim
	row := t.boxW(idx)
	t.pointRow(row, t.coords[int(idx)*d:][:d])
	n.liveCount = 0
	n.maxDel = 0
	if n.deleted {
		n.maxDel = n.del
	} else {
		n.liveCount = 1
	}
	for _, c := range [2]int32{n.left, n.right} {
		if c == nilNode {
			continue
		}
		cn := t.node(c)
		n.liveCount += cn.liveCount
		if cn.maxDel > n.maxDel {
			n.maxDel = cn.maxDel
		}
		crow := t.boxRow(c)
		for i := 0; i < d; i++ {
			row[i] = max(row[i], crow[i])
			row[d+i] = min(row[d+i], crow[d+i])
		}
		row[2*d] = max(row[2*d], crow[2*d])
	}
}

// visibleAt reports whether the node's point is part of the database as of
// epoch e.
func (n *node) visibleAt(e uint64) bool {
	return n.ins <= e && (!n.deleted || n.del > e)
}

// emptyAt reports whether the subtree can be pruned for an as-of-e read: no
// currently-live point and no tombstone deleted after e. (A subtree whose
// only visible points were inserted after e is still descended; the
// per-node visibility check rejects them.)
func (n *node) emptyAt(e uint64) bool {
	return n.liveCount == 0 && n.maxDel <= e
}

// Len returns the number of live points.
func (t *Tree) Len() int { return t.ids.count }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Epoch returns the current epoch: the number of mutations applied so far.
// A read at this epoch observes the present database.
func (t *Tree) Epoch() uint64 { return t.epoch }

// BeginRetain opens a retain window at the current epoch and returns it.
// Until EndRetain, tombstones are kept (rebuilds deferred, deleted points
// parked in a graveyard for by-id reads), so every At-query with an epoch
// >= the returned value is exact even while later deletions are recorded.
// Windows do not nest.
func (t *Tree) BeginRetain() uint64 {
	t.retaining = true
	t.retainFloor = t.epoch
	if t.graveyard == nil {
		t.graveyard = make(map[int]grave)
	}
	return t.epoch
}

// EndRetain closes the retain window, drops the graveyard, and performs any
// deferred compaction.
func (t *Tree) EndRetain() {
	t.retaining = false
	clear(t.graveyard)
	if t.removed > t.Len() {
		t.rebuild()
	}
}

// Contains reports whether a live point with the given id exists.
func (t *Tree) Contains(id int) bool {
	_, ok := t.ids.find(id)
	return ok
}

// PointByID returns the live point with the given id.
func (t *Tree) PointByID(id int) (geom.Point, bool) {
	if slot, ok := t.ids.find(id); ok {
		return t.pts[slot], true
	}
	return geom.Point{}, false
}

// PointByIDAt returns the point with the given id as it was live at epoch e.
// Deleted points are found only inside a retain window covering e.
func (t *Tree) PointByIDAt(id int, e uint64) (geom.Point, bool) {
	if slot, ok := t.ids.find(id); ok && t.node(slot).ins <= e {
		return t.pts[slot], true
	}
	if g, ok := t.graveyard[id]; ok && g.ins <= e && g.del > e {
		return g.p, true
	}
	return geom.Point{}, false
}

// Points returns all live points in unspecified order. The slice is freshly
// allocated at exactly the live count.
func (t *Tree) Points() []geom.Point {
	out := make([]geom.Point, 0, t.Len())
	for _, pg := range t.ids.pages {
		for _, e := range pg.ents {
			if e.ref != 0 {
				out = append(out, t.pts[e.ref-1])
			}
		}
	}
	return out
}

// Insert adds p to the tree. Inserting an ID that is already live replaces
// the old point (delete followed by insert).
func (t *Tree) Insert(p geom.Point) {
	if t.Contains(p.ID) {
		t.Delete(p.ID)
	}
	t.epoch++
	if t.root == nilNode {
		t.root = t.pushNode(rec{p: p, ins: t.epoch}, 0)
		t.refreshBounds(t.root)
		return
	}
	t.insertAt(t.root, p, t.epoch)
}

func (t *Tree) insertAt(idx int32, p geom.Point, ins uint64) {
	d, w := t.dim, rowLen(t.dim)
	sum := rowSum(p.Coords)
	for {
		pg := t.ownPage(idx)
		n := &pg.nodes[idx&pageMask]
		n.liveCount++
		off := int(idx&pageMask) * w
		// Widen the row where p falls outside it; the first widened entry
		// clones a shared box array.
		for i := 0; i < d; i++ {
			if c := p.Coords[i]; c > pg.box[off+i] {
				t.ownBox(pg)
				pg.box[off+i] = c
			} else if c < pg.box[off+d+i] {
				t.ownBox(pg)
				pg.box[off+d+i] = c
			}
		}
		if sum > pg.box[off+2*d] {
			t.ownBox(pg)
			pg.box[off+2*d] = sum
		}
		axis := int(n.axis)
		next := (axis + 1) % d
		goLeft := p.Coords[axis] < t.coords[int(idx)*d+axis]
		child := n.right
		if goLeft {
			child = n.left
		}
		if child == nilNode {
			// pushNode may clone or add a page: write the link through the
			// index, not through n.
			c := t.pushNode(rec{p: p, ins: ins}, next)
			if goLeft {
				t.nodeW(idx).left = c
			} else {
				t.nodeW(idx).right = c
			}
			t.refreshBounds(c)
			return
		}
		idx = child
	}
}

// Delete tombstones the point with the given id and reports whether it was
// present. When more than half of the stored nodes are tombstones the tree
// is rebuilt from the live points, keeping queries balanced; inside a
// retain window the rebuild is deferred to EndRetain so historic reads stay
// valid.
func (t *Tree) Delete(id int) bool {
	slot, ok := t.ids.find(id)
	if !ok {
		return false
	}
	p, ins := t.pts[slot], t.node(slot).ins
	t.ids.remove(id, t.gen)
	t.epoch++
	if t.retaining {
		t.graveyard[id] = grave{p: p, ins: ins, del: t.epoch}
	}
	if !t.tombstone(t.root, p, t.epoch) {
		// The id table and tree disagree; rebuild defensively to restore the
		// invariant rather than leave a phantom live node. The rebuild keeps
		// retained tombstones, so open retain windows survive it.
		t.rebuild()
		return true
	}
	t.removed++
	if !t.retaining && t.removed > t.Len() {
		t.rebuild()
	}
	return true
}

// tombstone finds the node holding point p (matching by ID) and marks it
// deleted at epoch del, decrementing live counts along the path.
// Coordinates equal on the split axis may sit in either subtree, so both
// are searched when needed. Nodes are written only once the path is known,
// so a failed search clones no page.
func (t *Tree) tombstone(idx int32, p geom.Point, del uint64) bool {
	if idx == nilNode {
		return false
	}
	d := t.dim
	base := int(idx) * d
	// Box pruning: p must be inside the subtree's bounding box.
	row := t.boxRow(idx)
	for i := 0; i < d; i++ {
		if p.Coords[i] > row[i] || p.Coords[i] < row[d+i] {
			return false
		}
	}
	n := t.node(idx)
	if t.pts[idx].ID == p.ID && !n.deleted {
		n = t.nodeW(idx)
		n.deleted = true
		n.del = del
		if del > n.maxDel {
			n.maxDel = del
		}
		n.liveCount--
		return true
	}
	left, right := n.left, n.right
	split := t.coords[base+int(n.axis)]
	var found bool
	if c := p.Coords[n.axis]; c < split {
		found = t.tombstone(left, p, del)
	} else {
		// Equal axis values historically went right, but an interleaved
		// rebuild may have placed them left of the median; search the other
		// side too.
		found = t.tombstone(right, p, del) || (c == split && t.tombstone(left, p, del))
	}
	if !found {
		return false
	}
	n = t.nodeW(idx)
	n.liveCount--
	if del > n.maxDel {
		n.maxDel = del
	}
	return true
}

// rebuild reconstructs the tree from the live points (the id table is
// authoritative), keeping the tombstones of an open retain window so
// historic reads stay exact. Live points are gathered in slot order, so the
// same history builds the same tree (only a defensive rebuild inside a
// retain window adds tombstones in map order). The tree is built into fresh
// pages and a fresh id table; views keep the old ones. pts and coords are
// compacted in place, reusing their storage and the record scratch, unless
// a view aliases them (flatGen older than gen): then they move to fresh
// backing arrays, so the view keeps reading its frozen prefix of the
// abandoned ones while the live tree walks away.
func (t *Tree) rebuild() {
	recs := t.recScratch[:0]
	for i, p := range t.pts {
		if slot, ok := t.ids.find(p.ID); ok && int(slot) == i {
			recs = append(recs, rec{p: p, ins: t.node(slot).ins})
		}
	}
	live := len(recs)
	if t.retaining {
		for _, g := range t.graveyard {
			if g.del > t.retainFloor {
				recs = append(recs, rec{p: g.p, ins: g.ins, del: g.del, deleted: true})
			}
		}
	}
	t.recScratch = recs
	if t.flatGen != t.gen {
		t.pts, t.coords = nil, nil
		t.flatGen = t.gen
	}
	t.pts, t.coords = t.pts[:0], t.coords[:0]
	t.growArena(len(recs))
	clear(t.pages)
	t.pages = t.pages[:0]
	t.ids.alloc(live, t.gen)
	t.root = t.build(recs, 0)
	t.removed = len(recs) - live
	// Drop stale point references from the reusable buffers so compaction
	// does not pin coordinate arrays of long-gone tuples.
	clear(recs)
	clear(t.pts[len(t.pts):cap(t.pts)])
}

// scoreBound is the per-query state of boxScoreUB: the utility, its axes
// in increasing weight, and the rounding slack per unit of coordinate sum.
// The axes slice is backed by the query's scratch.
type scoreBound struct {
	u     geom.Vector
	axes  []int
	slack float64
}

// bound prepares boxScoreUB for utility u, sorting u's axes once per query
// into sc.
func (sc *QueryScratch) bound(u geom.Vector) scoreBound {
	axes := sc.axes[:0]
	umax := 0.0
	for j, uj := range u {
		// Insertion sort: equal weights keep axis order.
		i := len(axes)
		axes = append(axes, j)
		for ; i > 0 && u[axes[i-1]] > uj; i-- {
			axes[i] = axes[i-1]
		}
		axes[i] = j
		umax = max(umax, uj)
	}
	sc.axes = axes
	return scoreBound{u: u, axes: axes, slack: float64(8*len(u)+8) * 0x1p-53 * umax}
}

// boxScoreUB returns an upper bound on the computed score scoreOf(u, p) of
// every point p under the page's slot i (i < pageLen). Coordinates and
// utility weights are nonnegative (the rms layer rejects other tuples and
// utilities). The bound is min(A, K + slack):
//
//   - A = Σ u_j·max_j. Its loop adds the same products in the same order as
//     scoreOf, and rounding is monotone, so A is at least every computed
//     score with no slack at all.
//   - K = max{<u, x> : min ≤ x ≤ max, Σ x_j ≤ maxSum}, the fractional
//     knapsack over the box cut by the largest coordinate sum. It is A
//     less the cheapest way to remove the excess E = Σ max_j − maxSum:
//     the axes give up their ranges max_j − min_j in increasing u_j. On
//     data that sits near one sum, as anti-correlated data does, K is far
//     below A.
//
// The slack covers the rounding that K's derivation does not see. Let
// ε = 2^-53, γ_n = nε/(1−nε) ≤ 1.01·nε, U = max_j u_j and H = Σ_j max_j,
// so that A ≤ U·H and every partial sum below is at most H or U·H:
//
//  1. a point's exact coordinate sum exceeds its computed rowSum, hence
//     maxSum, by at most γ_{d-1}·H, and K grows by at most U per unit of
//     budget: at most γ_{d-1}·U·H;
//  2. scoreOf exceeds the exact score by at most γ_d·U·H;
//  3. the computed cut takes off at most U per unit of budget error, and
//     the excess and the ranges carry at most (2d+1)·1.01·ε·H of it (the
//     sum of the maxima, the excess, d ranges, d updates); the running
//     value carries at most 3d·1.01·ε·U·H more (A's d products and sums,
//     then ≤ d products and ≤ d subtractions).
//
// The three add to under 7.1·d·ε·U·H, and the final product and sum to
// about 2.2·ε·U·H, so slack = (8d+8)·ε·U·(computed H) covers them for every
// d. The bound is therefore at least every computed score in the subtree:
// pruning on it loses no point, and a bound equal to the kth score still
// marks every possible tie.
func (b *scoreBound) boxScoreUB(pg *page, i int32) float64 {
	u := b.u
	d := len(u)
	row := pg.box[int(i)*(2*d+1):][: 2*d+1 : 2*d+1]
	hi, lo := row[:d:d], row[d:2*d:2*d]
	var a, sum float64
	for j, uj := range u {
		a += uj * hi[j]
		sum += hi[j]
	}
	excess := sum - row[2*d]
	if excess <= 0 {
		return a // the sum does not bind: K = A
	}
	k := a
	for _, j := range b.axes {
		r := hi[j] - lo[j]
		if r >= excess {
			k -= u[j] * excess
			break
		}
		k -= u[j] * r
		excess -= r
	}
	return min(a, k+b.slack*sum)
}

// scoreOf returns <u, p> for the point of slot idx from the arena's flat
// coordinate array.
func (a *arena) scoreOf(u geom.Vector, idx int32) float64 {
	c := a.coords[int(idx)*a.dim:][:len(u)]
	var s float64
	for i, ui := range u {
		s += ui * c[i]
	}
	return s
}

// Result is one scored tuple returned by TopK.
type Result struct {
	Point geom.Point
	Score float64
}

// TopK returns the k live points with the largest score <u, p>, in
// decreasing score order. Fewer than k points are returned when the tree
// holds fewer. Ties are broken by smaller point ID so results are stable:
// the answer is a deterministic function of the visible point set alone,
// never of the tree's internal shape (which rebuild timing perturbs).
// The slice is freshly allocated; hot paths should use TopKInto.
func (t *Tree) TopK(u geom.Vector, k int) []Result {
	var sc QueryScratch
	return copyResults(t.TopKInto(u, k, &sc))
}

// TopKInto is TopK reusing the caller's scratch: the returned slice is
// backed by sc and valid only until the next query through it.
func (t *Tree) TopKInto(u geom.Vector, k int, sc *QueryScratch) []Result {
	return t.TopKAtInto(u, k, t.epoch, sc)
}

// TopKAtInto is TopKInto against the database as of epoch e: the returned
// slice is backed by sc and valid only until the next query through it. A
// warmed-up scratch makes the query allocation-free.
//
// Two phases: a best-first branch-and-bound with strict pruning finds the
// k best SCORES (the score multiset is shape-independent, the identities of
// tuples tying the kth score are not — a pruned sibling box can hide an
// equal-scoring tuple with a smaller id). When anything was excluded at a
// value TYING the then-current kth score — a pruned box, a skipped point,
// an evicted tie — a threshold sweep at the final kth score collects every
// tying tuple and keeps the smallest ids. Exclusions strictly below the
// current kth can never reach the final kth (it only rises), so tie-free
// queries skip the sweep entirely; admitting ub == kth boxes into the heap
// search instead would explore the same region at far higher cost (clipped
// real datasets tie constantly).
func (t *Tree) TopKAtInto(u geom.Vector, k int, e uint64, sc *QueryScratch) []Result {
	return t.arena.topKAtInto(u, k, e, sc)
}

// topKAtInto is the shared Tree/View implementation of TopKAtInto.
func (a *arena) topKAtInto(u geom.Vector, k int, e uint64, sc *QueryScratch) []Result {
	best, ambiguous := a.searchTopK(u, k, e, sc)
	if len(best) == 0 {
		return nil
	}
	if len(best) == k && ambiguous {
		// Deterministic tie resolution at the kth-score boundary.
		out := a.atLeastAtInto(u, best[0].Score, e, sc)
		sortResults(out)
		return out[:k]
	}
	// Tie-free boundary (or fewer than k visible points, where the search
	// explored everything): the set itself is forced, so it is already
	// deterministic.
	sortResults(best)
	return best
}

// searchTopK is the phase-1 branch-and-bound: it returns k results whose
// SCORES are the exact k best as of epoch e (identities of tuples tying
// the kth score are traversal-dependent), plus whether any exclusion tied
// the then-current kth score — the signal that identity resolution needs
// the phase-2 sweep. The returned slice is backed by sc.results.
func (a *arena) searchTopK(u geom.Vector, k int, e uint64, sc *QueryScratch) (best []Result, ambiguous bool) {
	if a.root == nilNode || k <= 0 {
		clear(sc.results) // same anti-pinning hygiene as the non-empty path
		sc.results = sc.results[:0]
		return nil, false
	}
	b := sc.bound(u)
	prevResults := len(sc.results)
	frontier := sc.frontier[:0]
	best = sc.results[:0]
	var expanded uint64
	ent := frontierEntry{b.boxScoreUB(a.pages[a.root>>pageShift], a.root&pageMask), a.root}
	for {
		if len(best) == k && ent.ub <= best[0].Score {
			// Remaining frontier entries bound no higher than this one.
			if ent.ub == best[0].Score {
				ambiguous = true
			}
			break
		}
		expanded++
		n := a.node(ent.idx)
		if n.visibleAt(e) {
			s := a.scoreOf(u, ent.idx)
			if len(best) < k {
				best = pushResult(best, Result{a.pts[ent.idx], s})
			} else if s > best[0].Score {
				evicted := best[0].Score
				best[0] = Result{a.pts[ent.idx], s}
				fixResultRoot(best)
				if best[0].Score == evicted {
					ambiguous = true // the evicted point tied the surviving kth
				}
			} else if s == best[0].Score {
				ambiguous = true
			}
		}
		// Keep the children that may still beat the kth score, better first.
		var kids [2]frontierEntry
		kept := 0
		for _, c := range [2]int32{n.left, n.right} {
			if c == nilNode {
				continue
			}
			cp := a.pages[c>>pageShift]
			if cp.nodes[c&pageMask].emptyAt(e) {
				continue
			}
			ub := b.boxScoreUB(cp, c&pageMask)
			if len(best) < k || ub > best[0].Score {
				kids[kept] = frontierEntry{ub, c}
				kept++
			} else if ub == best[0].Score {
				ambiguous = true
			}
		}
		if kept == 2 {
			if kids[1].ub > kids[0].ub {
				kids[0], kids[1] = kids[1], kids[0]
			}
			frontier = pushFrontier(frontier, kids[1])
		}
		// Dive into the better child when no frontier entry bounds higher:
		// it is the entry the next pop would return (up to ties).
		if kept > 0 {
			if len(frontier) == 0 || kids[0].ub >= frontier[0].ub {
				ent = kids[0]
				continue
			}
			frontier = pushFrontier(frontier, kids[0])
		}
		if len(frontier) == 0 {
			break
		}
		ent, frontier = popFrontier(frontier)
	}
	sc.nodes += expanded
	sc.frontier = frontier
	// Results hold geom.Points: zero the shrink gap so the scratch does not
	// pin coordinate arrays of tuples a previous, larger query returned.
	// (Equal caps mean append never reallocated, i.e. same backing array.)
	if n := len(best); n < prevResults && cap(best) == cap(sc.results) {
		clear(best[n:prevResults])
	}
	sc.results = best
	return best, ambiguous
}

// sortResults orders results by decreasing score, then increasing point ID.
func sortResults(out []Result) {
	slices.SortFunc(out, func(a, b Result) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Point.ID < b.Point.ID:
			return -1
		case a.Point.ID > b.Point.ID:
			return 1
		}
		return 0
	})
}

// copyResults clones a scratch-backed result slice into caller-owned memory.
func copyResults(res []Result) []Result {
	if res == nil {
		return nil
	}
	out := make([]Result, len(res))
	copy(out, res)
	return out
}

// KthScore returns the k-th largest score w.r.t. u (ω_k in the paper).
// When fewer than k live points exist it returns the smallest live score,
// so every point counts as a top-k member; ok is false on an empty tree.
func (t *Tree) KthScore(u geom.Vector, k int) (score float64, ok bool) {
	var sc QueryScratch
	return t.KthScoreAtInto(u, k, t.epoch, &sc)
}

// KthScoreAtInto is KthScore against the database as of epoch e, reusing
// the caller's scratch. Only the kth SCORE is needed, which phase 1
// determines exactly, so the identity-resolving tie sweep of TopKAtInto is
// skipped entirely.
func (t *Tree) KthScoreAtInto(u geom.Vector, k int, e uint64, sc *QueryScratch) (score float64, ok bool) {
	return t.arena.kthScoreAtInto(u, k, e, sc)
}

// kthScoreAtInto is the shared Tree/View implementation of KthScoreAtInto.
func (a *arena) kthScoreAtInto(u geom.Vector, k int, e uint64, sc *QueryScratch) (score float64, ok bool) {
	best, _ := a.searchTopK(u, k, e, sc)
	if len(best) == 0 {
		return 0, false
	}
	// best[0] is the heap's worst kept result = the kth (or, with fewer
	// than k points, the smallest live) score.
	return best[0].Score, true
}

// AtLeast returns every live point with score <u, p> >= tau, in unspecified
// order. This realizes Φ_{k,ε} when tau = (1-ε)·ω_k. The slice is freshly
// allocated; hot paths should use AtLeastInto.
func (t *Tree) AtLeast(u geom.Vector, tau float64) []Result {
	var sc QueryScratch
	out := t.AtLeastInto(u, tau, &sc)
	if len(out) == 0 {
		return nil
	}
	return copyResults(out)
}

// AtLeastInto is AtLeast reusing the caller's scratch: the returned slice
// is backed by sc and valid only until the next query through it.
func (t *Tree) AtLeastInto(u geom.Vector, tau float64, sc *QueryScratch) []Result {
	return t.AtLeastAtInto(u, tau, t.epoch, sc)
}

// AtLeastAtInto is AtLeastInto against the database as of epoch e: the
// returned slice is backed by sc and valid only until the next query
// through it. A warmed-up scratch makes the query allocation-free.
func (t *Tree) AtLeastAtInto(u geom.Vector, tau float64, e uint64, sc *QueryScratch) []Result {
	return t.arena.atLeastAtInto(u, tau, e, sc)
}

// atLeastAtInto is the shared Tree/View implementation of AtLeastAtInto.
func (a *arena) atLeastAtInto(u geom.Vector, tau float64, e uint64, sc *QueryScratch) []Result {
	prevOut := len(sc.out)
	out := sc.out[:0]
	if a.root == nilNode {
		clear(out[:prevOut])
		sc.out = out
		return out
	}
	b := sc.bound(u)
	var expanded uint64
	stack := sc.stack[:0]
	stack = append(stack, a.root)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pg := a.pages[idx>>pageShift]
		n := &pg.nodes[idx&pageMask]
		if n.emptyAt(e) || b.boxScoreUB(pg, idx&pageMask) < tau {
			continue
		}
		expanded++
		if n.visibleAt(e) {
			if s := a.scoreOf(u, idx); s >= tau {
				out = append(out, Result{a.pts[idx], s})
			}
		}
		// Push right first so the left subtree is visited first (pre-order,
		// matching the historical recursive walk).
		if n.right != nilNode {
			stack = append(stack, n.right)
		}
		if n.left != nilNode {
			stack = append(stack, n.left)
		}
	}
	// Zero the shrink gap so the scratch does not pin coordinate arrays of
	// tuples a previous, larger sweep returned (same-backing check as in
	// searchTopK).
	if n := len(out); n < prevOut && cap(out) == cap(sc.out) {
		clear(out[n:prevOut])
	}
	sc.out = out
	sc.stack = stack
	sc.nodes += expanded
	return out
}
