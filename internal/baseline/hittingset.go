package baseline

import (
	"slices"
	"sort"

	"fdrms/internal/geom"
	"fdrms/internal/kdtree"
)

// HittingSet is the hitting-set algorithm of Agarwal et al. (SEA 2017) for
// min-size k-RMS: sample a set of utility directions, build for each the
// ε-approximate top-k set Φ_{k,ε}(u, P), and pick the smallest tuple set
// hitting all of them (greedy). A tuple set hitting every Φ_{k,ε} is a
// (k, ε)-regret set for the sampled directions. Following the paper's
// adaptation to the size-constrained problem, a binary search over ε finds
// the smallest ε whose greedy hitting set fits in r tuples.
type HittingSet struct {
	seed    int64
	samples int
}

// NewHittingSet returns the HS baseline.
func NewHittingSet(seed int64) *HittingSet { return &HittingSet{seed: seed, samples: 2000} }

// Name implements Algorithm.
func (*HittingSet) Name() string { return "HS" }

// SupportsK implements Algorithm: any k >= 1.
func (*HittingSet) SupportsK(k int) bool { return k >= 1 }

// Compute implements Algorithm.
func (h *HittingSet) Compute(P []geom.Point, dim, k, r int) []geom.Point {
	// greedyHit keeps the first of equally good tuples, and for k > 1 the
	// pool is all of P, so work on P in id order: the answer must not depend
	// on the order the caller lists the tuples in.
	P = sortByID(slices.Clone(P))
	pool := candidatePool(P, k)
	if len(pool) == 0 || r <= 0 {
		return nil
	}
	dirs := make([]geom.Vector, 0, h.samples+dim)
	for i := 0; i < dim; i++ {
		dirs = append(dirs, geom.Basis(dim, i))
	}
	s := geom.NewUnitSampler(dim, h.seed)
	dirs = append(dirs, s.SampleN(h.samples)...)

	// ω_k per direction over the FULL database: for k > 1 the validation
	// must consider all tuples, which is exactly what makes HS slow there.
	tree := kdtree.New(dim, P)
	kth := make([]float64, len(dirs))
	for i, u := range dirs {
		kth[i], _ = tree.KthScore(u, k)
	}

	// Binary search the smallest ε whose hitting set fits in r.
	lo, hi := 0.0, 1.0
	var best []geom.Point
	for iter := 0; iter < 24; iter++ {
		eps := (lo + hi) / 2
		sel := h.greedyHit(pool, dirs, kth, eps, r)
		if sel != nil {
			best = sel
			hi = eps
		} else {
			lo = eps
		}
	}
	if best == nil {
		best = h.greedyHit(pool, dirs, kth, 1.0, r)
	}
	return sortByID(best)
}

// greedyHit returns a greedy hitting set of the Φ_{k,ε} families with at
// most r tuples, or nil when r is insufficient.
func (h *HittingSet) greedyHit(pool []geom.Point, dirs []geom.Vector, kth []float64, eps float64, r int) []geom.Point {
	// memberOf[j] = indices of directions whose Φ contains pool[j].
	memberOf := make([][]int, len(pool))
	hitCount := make([]int, len(pool))
	unhit := 0
	needed := make([]bool, len(dirs))
	for i, u := range dirs {
		if kth[i] <= 0 {
			continue
		}
		tau := (1 - eps) * kth[i]
		any := false
		for j, p := range pool {
			if geom.Score(u, p) >= tau {
				memberOf[j] = append(memberOf[j], i)
				any = true
			}
		}
		if any {
			needed[i] = true
			unhit++
		}
		// Directions no pool tuple reaches (possible when k > 1 and the pool
		// is the full database but ε is tiny) are skipped: no hitting set
		// exists for them and the binary search will widen ε.
	}
	for j := range pool {
		hitCount[j] = len(memberOf[j])
	}
	hit := make([]bool, len(dirs))
	var sel []geom.Point
	for unhit > 0 {
		if len(sel) == r {
			return nil
		}
		bestJ, bestCount := -1, 0
		for j := range pool {
			if hitCount[j] > bestCount {
				bestJ, bestCount = j, hitCount[j]
			}
		}
		if bestJ < 0 {
			return nil
		}
		sel = append(sel, pool[bestJ])
		for _, i := range memberOf[bestJ] {
			if !hit[i] {
				hit[i] = true
				unhit--
				// Decrement counts of tuples sharing this direction.
			}
		}
		// Recompute counts lazily (pool and dirs are modest; clarity wins).
		for j := range pool {
			c := 0
			for _, i := range memberOf[j] {
				if !hit[i] {
					c++
				}
			}
			hitCount[j] = c
		}
	}
	sort.Slice(sel, func(a, b int) bool { return sel[a].ID < sel[b].ID })
	return sel
}
