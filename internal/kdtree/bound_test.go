package kdtree

import (
	"fmt"
	"math/rand"
	"testing"

	"fdrms/internal/dataset"
	"fdrms/internal/geom"
)

// checkBoundsSound asserts, for every node of a reachable from its root and
// every utility, that boxScoreUB is at least the computed score (scoreOf)
// of every point in the node's subtree, tombstones included: pruning on the
// bound and the bound == kth tie signal both rely on it. It returns the
// number of (node, utility) pairs whose bound fell strictly below
// Σ u_j·max_j, i.e. where the coordinate-sum cut did the pruning.
func checkBoundsSound(t *testing.T, label string, a *arena, us []geom.Vector) (cut int) {
	t.Helper()
	var sc QueryScratch
	for ui, u := range us {
		b := sc.bound(u)
		var walk func(idx int32) float64
		walk = func(idx int32) float64 {
			n := a.node(idx)
			best := a.scoreOf(u, idx)
			for _, c := range [2]int32{n.left, n.right} {
				if c != nilNode {
					best = max(best, walk(c))
				}
			}
			ub := b.boxScoreUB(a.pages[idx>>pageShift], idx&pageMask)
			if ub < best {
				t.Fatalf("%s: utility %d %v: node %d bounds %v below its subtree's best computed score %v (row %v)",
					label, ui, u, idx, ub, best, a.boxRow(idx))
			}
			var hiScore float64
			for j, uj := range u {
				hiScore += uj * a.boxRow(idx)[j]
			}
			if ub < hiScore {
				cut++
			}
			return best
		}
		if a.root != nilNode {
			walk(a.root)
		}
	}
	return cut
}

// boundUtilities returns the d basis vectors, random utilities with some
// components zeroed, and plain random utilities.
func boundUtilities(rng *rand.Rand, d int) []geom.Vector {
	var us []geom.Vector
	for j := 0; j < d; j++ {
		us = append(us, geom.Basis(d, j))
	}
	for i := 0; i < 12; i++ {
		u := randomUnit(rng, d)
		if i < 8 {
			for j := range u {
				if rng.Intn(2) == 0 {
					u[j] = 0
				}
			}
			u[rng.Intn(d)] = 1
		}
		us = append(us, u)
	}
	return us
}

// cornerPoints draws points whose coordinates each sit at one of the two
// ends of [lo, hi]: the knapsack optimum of a box is a corner like these,
// so their scores meet the bound exactly.
func cornerPoints(rng *rand.Rand, n, d, idBase int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		lo, hi := 0.1*float64(rng.Intn(4)), 1-0.1*float64(rng.Intn(3))
		v := make(geom.Vector, d)
		for j := range v {
			if rng.Intn(2) == 0 {
				v[j] = lo
			} else {
				v[j] = hi
			}
		}
		pts[i] = geom.Point{ID: idBase + i, Coords: v}
	}
	return pts
}

// The score bound holds for every node, on the live tree and on views, as
// inserts widen rows, tombstones leave them, and rebuilds redo them; it is
// checked on uniform, clipped anti-correlated, tied-grid and box-corner
// data, with basis utilities and utilities with zero components.
func TestBoxScoreUBSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 400
	gens := []struct {
		name string
		gen  func(n, d, idBase int) []geom.Point
	}{
		{"uniform", func(n, d, idBase int) []geom.Point {
			pts := randomPoints(rng, n, d)
			for i := range pts {
				pts[i].ID += idBase
			}
			return pts
		}},
		{"anticor", func(n, d, idBase int) []geom.Point {
			pts := dataset.AntiCor(n, d, rng.Int63()).Points
			for i := range pts {
				pts[i].ID += idBase
			}
			return pts
		}},
		{"grid", func(n, d, idBase int) []geom.Point { return gridPointsKD(rng, n, d, idBase, 3) }},
		{"corner", func(n, d, idBase int) []geom.Point { return cornerPoints(rng, n, d, idBase) }},
	}
	for _, g := range gens {
		cut := 0
		for _, d := range []int{2, 3, 6} {
			label := fmt.Sprintf("%s d=%d", g.name, d)
			us := boundUtilities(rng, d)
			tr := New(d, g.gen(n, d, 0))
			cut += checkBoundsSound(t, label+" built", &tr.arena, us)
			checkTreeInvariants(t, tr)
			v0 := tr.View()
			for i, p := range g.gen(n/2, d, 10000) {
				tr.Insert(p)
				if i%50 == 0 {
					tr.View() // later inserts clone what this view shares
				}
			}
			checkTreeInvariants(t, tr)
			cut += checkBoundsSound(t, label+" inserted", &tr.arena, us)
			v1 := tr.View()
			for id := 0; id < n/2; id += 2 {
				tr.Delete(id) // tombstones: the rows keep their points
			}
			checkTreeInvariants(t, tr)
			cut += checkBoundsSound(t, label+" tombstoned", &tr.arena, us)
			slots := len(tr.pts)
			for id := 1; id < n; id++ {
				tr.Delete(id) // past half tombstones: rebuilds
			}
			if len(tr.pts) >= slots {
				t.Fatalf("%s: the deletes rebuilt nothing", label)
			}
			checkTreeInvariants(t, tr)
			cut += checkBoundsSound(t, label+" rebuilt", &tr.arena, us)
			cut += checkBoundsSound(t, label+" view at build", &v0.arena, us)
			cut += checkBoundsSound(t, label+" view after inserts", &v1.arena, us)
		}
		if cut == 0 {
			t.Fatalf("%s: the coordinate-sum cut never tightened a bound", g.name)
		}
	}
}
