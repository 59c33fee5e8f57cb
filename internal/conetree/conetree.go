// Package conetree implements the utility index (UI) of Section III-C: an
// angular binary-space-partitioning tree over the sampled utility vectors,
// following the cone tree of Ram & Gray (KDD 2012).
//
// Linear top-k results depend only on a utility vector's direction, so the
// tree clusters utilities with high cosine similarity. Each node keeps a
// unit center, the maximum angle from the center to any vector in its
// subtree, and the minimum pruning threshold of its subtree. For an
// inserted tuple p the score of any u in the node is bounded by
//
//	<u, p> <= ‖p‖ · cos(max(0, θ(center, p) − maxAngle)),
//
// (spherical triangle inequality), so whole clusters whose bound falls
// below their minimum threshold are skipped — this is how FD-RMS touches
// only the u(Δt) utilities whose approximate top-k results an insertion can
// change (the top-down scheme of Yu et al., SIGMOD 2012). The probe
// evaluates the bound without inverse trigonometry (see probe.reaches).
//
// The indexed utilities are fixed at construction: FD-RMS samples its M
// vectors once and Algorithm 4 moves m inside [r, M] on the set-cover side
// only. The tree shape therefore never changes; only the thresholds move,
// through SetThreshold.
package conetree

import (
	"math"

	"fdrms/internal/geom"
)

const leafCapacity = 8

// Item is one indexed utility vector with its pruning threshold, typically
// (1-ε)·ω_k(u, P). A tuple p can affect u only when <u, p> >= Threshold.
type Item struct {
	ID        int
	U         geom.Vector
	Threshold float64
}

// Tree is a static cone tree over utility vectors with mutable thresholds.
type Tree struct {
	root  *node
	dim   int
	items map[int]*entry

	// stack is the reusable DFS scratch of the probe path (AffectedInto,
	// Visited). The tree is single-writer/single-prober, matching the topk
	// engine's batch pipeline, which probes only between parallel phases.
	stack []*node
}

type entry struct {
	item Item
	leaf *node
}

type node struct {
	parent      *node
	left, right *node
	center      geom.Vector // unit mean direction, conservative
	maxAngle    float64     // max angle(center, u) over the subtree
	cosMax      float64     // cos(maxAngle)
	sinMax      float64     // sin(maxAngle)
	minThresh   float64     // min Threshold over the subtree
	ids         []int       // leaf payload (nil for internal nodes)
	count       int         // items in the subtree
}

// New builds a cone tree over the given items.
func New(dim int, items []Item) *Tree {
	t := &Tree{dim: dim, items: make(map[int]*entry, len(items))}
	for _, it := range items {
		t.items[it.ID] = &entry{item: it} // duplicate ids: the last item wins
	}
	// One leaf slot per DISTINCT id (first-occurrence order keeps the build
	// deterministic): a duplicated id planted in two leaves would be
	// reported twice by Affected.
	ids := make([]int, 0, len(t.items))
	seen := make(map[int]bool, len(t.items))
	for _, it := range items {
		if seen[it.ID] {
			continue
		}
		seen[it.ID] = true
		ids = append(ids, it.ID)
	}
	t.root = t.build(nil, ids)
	return t
}

// Len returns the number of indexed utilities.
func (t *Tree) Len() int { return len(t.items) }

// build constructs a subtree over ids (splitting by two far-apart pivots, as
// in Algorithm 9 of Ram & Gray).
func (t *Tree) build(parent *node, ids []int) *node {
	if len(ids) == 0 {
		return nil
	}
	n := &node{parent: parent, count: len(ids)}
	if len(ids) <= leafCapacity {
		n.ids = append([]int(nil), ids...)
		for _, id := range ids {
			t.items[id].leaf = n
		}
		t.refreshLeaf(n)
		return n
	}
	// Pivot a: farthest (by angle) from ids[0]; pivot b: farthest from a.
	a := t.farthestFrom(ids, t.items[ids[0]].item.U)
	b := t.farthestFrom(ids, t.items[a].item.U)
	ua, ub := t.items[a].item.U, t.items[b].item.U
	var left, right []int
	for _, id := range ids {
		u := t.items[id].item.U
		if geom.CosAngle(u, ua) >= geom.CosAngle(u, ub) {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		// Degenerate (e.g., all identical directions): force a leaf chain.
		n.ids = append([]int(nil), ids...)
		for _, id := range ids {
			t.items[id].leaf = n
		}
		t.refreshLeaf(n)
		return n
	}
	n.left = t.build(n, left)
	n.right = t.build(n, right)
	t.refreshInternal(n)
	return n
}

func (t *Tree) farthestFrom(ids []int, u geom.Vector) int {
	best, bestCos := ids[0], math.Inf(1)
	for _, id := range ids {
		if c := geom.CosAngle(t.items[id].item.U, u); c < bestCos {
			bestCos = c
			best = id
		}
	}
	return best
}

// refreshLeaf computes a (non-empty) leaf's center, maxAngle, and
// minThresh from its payload.
func (t *Tree) refreshLeaf(n *node) {
	center := make(geom.Vector, t.dim)
	for _, id := range n.ids {
		center = geom.Add(center, t.items[id].item.U)
	}
	geom.Normalize(center)
	n.center = center
	n.maxAngle = 0
	n.minThresh = math.Inf(1)
	for _, id := range n.ids {
		it := t.items[id].item
		if a := geom.Angle(center, it.U); a > n.maxAngle {
			n.maxAngle = a
		}
		if it.Threshold < n.minThresh {
			n.minThresh = it.Threshold
		}
	}
	n.cosMax, n.sinMax = math.Cos(n.maxAngle), math.Sin(n.maxAngle)
}

// refreshInternal computes an internal node's summary from its two
// (non-empty) children.
func (t *Tree) refreshInternal(n *node) {
	n.minThresh = minThreshOf(n)
	weighted := geom.Add(
		geom.Scale(n.left.center, float64(n.left.count)),
		geom.Scale(n.right.center, float64(n.right.count)))
	geom.Normalize(weighted)
	n.center = weighted
	// Conservative bound: a child's members are within child.maxAngle of the
	// child center, which is within angle(center, child.center) of ours.
	n.maxAngle = 0
	for _, c := range [2]*node{n.left, n.right} {
		if a := geom.Angle(n.center, c.center) + c.maxAngle; a > n.maxAngle {
			n.maxAngle = a
		}
	}
	if n.maxAngle > math.Pi {
		n.maxAngle = math.Pi
	}
	n.cosMax, n.sinMax = math.Cos(n.maxAngle), math.Sin(n.maxAngle)
}

// SetThreshold updates the pruning threshold for id and repairs subtree
// minima along the leaf-to-root path.
func (t *Tree) SetThreshold(id int, tau float64) {
	e, ok := t.items[id]
	if !ok {
		return
	}
	e.item.Threshold = tau
	leaf := e.leaf
	min := math.Inf(1)
	for _, x := range leaf.ids {
		if th := t.items[x].item.Threshold; th < min {
			min = th
		}
	}
	leaf.minThresh = min
	for n := leaf.parent; n != nil; n = n.parent {
		n.minThresh = minThreshOf(n)
	}
}

// minThreshOf is the smaller of an internal node's children's minThresh.
func minThreshOf(n *node) float64 {
	min := math.Inf(1)
	for _, c := range [2]*node{n.left, n.right} {
		if c.minThresh < min {
			min = c.minThresh
		}
	}
	return min
}

// Threshold returns the current threshold of id.
func (t *Tree) Threshold(id int) (float64, bool) {
	e, ok := t.items[id]
	if !ok {
		return 0, false
	}
	return e.item.Threshold, true
}

// Affected returns the IDs of every indexed utility u with
// <u, p> >= Threshold(u), i.e., the utilities whose ε-approximate top-k
// result the insertion of p can change. Visited leaves check exactly;
// pruned subtrees are guaranteed to contain no match. The slice is freshly
// allocated; hot paths should use AffectedInto.
func (t *Tree) Affected(p geom.Point) []int {
	return t.AffectedInto(p, nil)
}

// AffectedInto is Affected appending into out (typically a reused buffer
// re-sliced to length zero), avoiding any allocation when both out and the
// tree's DFS scratch have warmed up. Matches are appended in leaf order
// (left subtree before right), the order the recursive walk produced.
func (t *Tree) AffectedInto(p geom.Point, out []int) []int {
	t.reachedLeaves(p, func(leaf *node) {
		for _, id := range leaf.ids {
			it := t.items[id].item
			if geom.Score(it.U, p) >= it.Threshold {
				out = append(out, id)
			}
		}
	})
	return out
}

// Visited counts the leaf items whose exact score would be evaluated for p;
// it is Affected without the final filter and exists for the cone-pruning
// ablation experiment.
func (t *Tree) Visited(p geom.Point) int {
	count := 0
	t.reachedLeaves(p, func(leaf *node) { count += len(leaf.ids) })
	return count
}

// reachedLeaves calls visit, left to right, on every leaf the cone bound
// does not prune for p.
func (t *Tree) reachedLeaves(p geom.Point, visit func(leaf *node)) {
	if t.root == nil {
		return
	}
	pr := newProbe(p.Coords)
	stack := append(t.stack[:0], t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !pr.reaches(n) {
			continue
		}
		if n.ids != nil {
			visit(n)
			continue
		}
		stack = append(stack, n.right, n.left)
	}
	t.stack = stack
}

// probe is one tuple's pruning state for reachedLeaves.
type probe struct {
	p            geom.Vector
	norm, normSq float64 // ‖p‖ and ‖p‖²
	slack        float64 // rounding slack, (8d+8)·2^-53·‖p‖
}

func newProbe(p geom.Vector) probe {
	sq := geom.Dot(p, p)
	norm := math.Sqrt(sq)
	return probe{p: p, norm: norm, normSq: sq, slack: float64(8*len(p)+8) * 0x1p-53 * norm}
}

// reaches reports whether some utility in n's subtree may score p at or
// above its threshold: whether the bound ‖p‖·cos(max(0, θ − α)), with θ the
// angle from n's center c to p and α = n.maxAngle, is at least n.minThresh.
// With C = <c, p> = ‖p‖·cos θ, the bound is ‖p‖ when θ ≤ α (C ≥ ‖p‖·cos α)
// and otherwise expands to C·cos α + √(‖p‖² − C²)·sin α, so the probe needs
// no acos, no cos and no renormalized center. Tuples, utilities and hence
// centers are nonnegative, so θ ≤ π/2 and sin α < sin θ on the second
// branch; every rounding error there, the cancellation in ‖p‖² − C²
// included, is then a few d·2^-53·‖p‖, as is the rounding of each item's
// exact score, and the slack covers them both. It does not widen α, which
// the build derives with acos.
func (pr *probe) reaches(n *node) bool {
	var c float64
	for i, x := range n.center {
		c += x * pr.p[i]
	}
	ub := pr.norm
	if c < pr.norm*n.cosMax {
		ub = c*n.cosMax + math.Sqrt(max(0, pr.normSq-c*c))*n.sinMax
	}
	return ub+pr.slack >= n.minThresh
}
