package kdtree

import (
	"slices"

	"fdrms/internal/geom"
)

// View is an immutable snapshot of the tree pinned to the epoch at which it
// was taken: the score queries (TopKInto, AtLeastInto, KthScoreInto) answer
// exactly as the live tree would have at that epoch, and Len and Contains
// report the live set of that epoch, no matter how many mutations,
// rebuilds, or retain windows happen afterwards. A View takes no locks and
// the writer never writes what it reads, so any number of goroutines may
// query concurrent Views (each with its own QueryScratch) while a single
// writer keeps mutating the tree — the MVCC read surface of the serving
// layer.
//
// Capture cost and sharing: View() copies the node page table and the id
// table's page table, both O(n/pageLen) pointers, and advances the tree's
// generation, which marks every current page shared in O(1). The writer
// clones a shared page the first time it writes to it (Tree.ownPage,
// idIndex.own), so each later commit copies only the pages it touches; a
// node page's boxMax array is cloned separately, on the first write of a
// row (Tree.ownBoxMax), so pages that only tombstones touch keep sharing
// their bounds with the view. The
// point payload and flat coordinate arrays are append-only between rebuilds:
// the view reads only its frozen prefix, so concurrent appends past that
// prefix are race-free, and a rebuild while a view is outstanding moves
// them to fresh backing arrays instead of compacting in place. A dropped
// View is reclaimed by the garbage collector; holding one pins the pages
// and arrays it shares, which the live tree keeps only until it rewrites
// them.
type View struct {
	arena
	ids   idIndex
	epoch uint64
}

// View captures an immutable snapshot of the current database. The caller
// must be the tree's (single) writer or be synchronized with it; the
// returned View itself is then safe for unsynchronized concurrent use.
func (t *Tree) View() *View {
	v := &View{
		arena: arena{
			dim:    t.dim,
			pages:  slices.Clone(t.pages),
			pts:    t.pts[:len(t.pts):len(t.pts)],
			coords: t.coords[:len(t.coords):len(t.coords)],
			root:   t.root,
		},
		ids:   t.ids.clone(),
		epoch: t.epoch,
	}
	t.gen++
	return v
}

// Epoch returns the epoch the view is pinned to.
func (v *View) Epoch() uint64 { return v.epoch }

// Len returns the number of points live at the view's epoch.
func (v *View) Len() int { return v.ids.count }

// Contains reports whether a point with the given id was live at the view's
// epoch.
func (v *View) Contains(id int) bool {
	_, ok := v.ids.find(id)
	return ok
}

// Dim returns the view's dimensionality.
func (v *View) Dim() int { return v.dim }

// TopKInto is Tree.TopKInto evaluated at the view's pinned epoch: the k
// points with the largest score <u, p>, decreasing score, ties to smaller
// ID. The returned slice is backed by sc and valid only until the next
// query through it.
func (v *View) TopKInto(u geom.Vector, k int, sc *QueryScratch) []Result {
	return v.arena.topKAtInto(u, k, v.epoch, sc)
}

// TopK is TopKInto with a private scratch and caller-owned result memory.
func (v *View) TopK(u geom.Vector, k int) []Result {
	var sc QueryScratch
	return copyResults(v.TopKInto(u, k, &sc))
}

// AtLeastInto is Tree.AtLeastInto evaluated at the view's pinned epoch:
// every point with score >= tau, in unspecified order, backed by sc.
func (v *View) AtLeastInto(u geom.Vector, tau float64, sc *QueryScratch) []Result {
	return v.arena.atLeastAtInto(u, tau, v.epoch, sc)
}

// Points returns the points live at the view's pinned epoch, in unspecified
// order (callers that need a canonical order sort by ID). Visibility is
// decided per node, so the result is exact no matter how many mutations the
// live tree has absorbed since the capture: a node inserted before and not
// deleted by the view's epoch is visible exactly once — an insert that
// replaces a live id always tombstones the old node first, so no id has two
// nodes visible at any single epoch.
func (v *View) Points() []geom.Point {
	out := make([]geom.Point, 0, v.Len())
	for i, p := range v.pts {
		if v.node(int32(i)).visibleAt(v.epoch) {
			out = append(out, p)
		}
	}
	return out
}

// KthScoreInto is Tree.KthScoreInto evaluated at the view's pinned epoch:
// the k-th largest score (ω_k), or the smallest live score when fewer than
// k points exist; ok is false on an empty database.
func (v *View) KthScoreInto(u geom.Vector, k int, sc *QueryScratch) (score float64, ok bool) {
	return v.arena.kthScoreAtInto(u, k, v.epoch, sc)
}
