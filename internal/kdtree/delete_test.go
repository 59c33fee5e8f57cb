package kdtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fdrms/internal/geom"
)

// gridPointsKD generates points on a coarse grid: duplicate coordinates and
// exact equal-on-axis values occur constantly, which is the adversarial
// regime for tombstoning (the equal-axis search-other-side branch) and for
// rebuild interleaving.
func gridPointsKD(rng *rand.Rand, n, d, idBase, levels int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = float64(rng.Intn(levels)) / float64(levels-1)
		}
		pts[i] = geom.Point{ID: idBase + i, Coords: v}
	}
	return pts
}

// checkTreeInvariants walks the arena and verifies liveCount and maxDel
// bookkeeping bottom-up, and that every box row contains its subtree: each
// point, tombstones included, lies within the row's minima and maxima, and
// its coordinate sum is at most the row's largest sum.
func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	d := tr.dim
	var walk func(idx int32) (live int32, maxDel uint64)
	walk = func(idx int32) (int32, uint64) {
		if idx == nilNode {
			return 0, 0
		}
		n := tr.node(idx)
		ll, lm := walk(n.left)
		rl, rm := walk(n.right)
		row := tr.boxRow(idx)
		var inRow func(c int32)
		inRow = func(c int32) {
			if c == nilNode {
				return
			}
			p := tr.coords[int(c)*d:][:d]
			for j, x := range p {
				if x > row[j] || x < row[d+j] {
					t.Fatalf("node %d's row %v misses point %d at %v", tr.pts[idx].ID, row, tr.pts[c].ID, p)
				}
			}
			if rowSum(p) > row[2*d] {
				t.Fatalf("node %d's row %v: point %d sums to %v", tr.pts[idx].ID, row, tr.pts[c].ID, rowSum(p))
			}
			inRow(tr.node(c).left)
			inRow(tr.node(c).right)
		}
		inRow(idx)
		live, maxDel := ll+rl, lm
		if rm > maxDel {
			maxDel = rm
		}
		if n.deleted {
			if n.del > maxDel {
				maxDel = n.del
			}
		} else {
			live++
		}
		if n.liveCount != live {
			t.Fatalf("liveCount drift at node %d: stored %d, actual %d", tr.pts[idx].ID, n.liveCount, live)
		}
		if n.maxDel != maxDel {
			t.Fatalf("maxDel drift at node %d: stored %d, actual %d", tr.pts[idx].ID, n.maxDel, maxDel)
		}
		return live, maxDel
	}
	live, _ := walk(tr.root)
	if int(live) != tr.Len() {
		t.Fatalf("tree holds %d live nodes, Len() = %d", live, tr.Len())
	}
}

// Equal coordinates everywhere: deletions must find their tombstone even
// when an interleaved rebuild moved equal-axis points to the other side of
// a split, and delete-triggered rebuilds must keep every query exact.
func TestDeleteEqualCoordinatesChurnQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		levels := 2 + rng.Intn(2)
		tr := New(d, gridPointsKD(rng, 30, d, 0, levels))
		live := make(map[int]geom.Point)
		for _, p := range tr.Points() {
			live[p.ID] = p
		}
		next := 1000
		for op := 0; op < 120; op++ {
			// Delete-heavy (60%) so tombstones pile up and rebuilds trigger
			// repeatedly, interleaved with inserts of yet more duplicates.
			if rng.Intn(10) < 6 && len(live) > 0 {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				id := ids[rng.Intn(len(ids))]
				if !tr.Delete(id) {
					return false
				}
				delete(live, id)
			} else {
				p := gridPointsKD(rng, 1, d, next, levels)[0]
				next++
				tr.Insert(p)
				live[p.ID] = p
			}
			if tr.Len() != len(live) {
				return false
			}
		}
		pts := make([]geom.Point, 0, len(live))
		for _, p := range live {
			pts = append(pts, p)
		}
		for q := 0; q < 10; q++ {
			u := randomUnit(rng, d)
			if !sameResults(tr.TopK(u, 5), bruteTopK(pts, u, 5)) {
				return false
			}
			tau := rng.Float64()
			got := make(map[int]bool)
			for _, r := range tr.AtLeast(u, tau) {
				got[r.Point.ID] = true
			}
			for _, p := range pts {
				if (geom.Score(u, p) >= tau) != got[p.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Bookkeeping invariants hold through equal-coordinate churn.
func TestDeleteInvariantsEqualCoords(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 3
	tr := New(d, gridPointsKD(rng, 50, d, 0, 2))
	next := 500
	for op := 0; op < 400; op++ {
		if rng.Intn(2) == 0 && tr.Len() > 0 {
			pts := tr.Points()
			tr.Delete(pts[rng.Intn(len(pts))].ID)
		} else {
			tr.Insert(gridPointsKD(rng, 1, d, next, 2)[0])
			next++
		}
		checkTreeInvariants(t, tr)
	}
}

// findNode locates the arena slot holding the live point with the given id
// (test helper for corrupting the tree); nilNode when absent.
func findNode(tr *Tree, idx int32, id int) int32 {
	if idx == nilNode {
		return nilNode
	}
	if tr.pts[idx].ID == id && !tr.node(idx).deleted {
		return idx
	}
	if f := findNode(tr, tr.node(idx).left, id); f != nilNode {
		return f
	}
	return findNode(tr, tr.node(idx).right, id)
}

// The defensive-rebuild branch: when the id table and the tree disagree
// (the tombstone search comes up empty for a live id), Delete must rebuild
// and land in a fully consistent state instead of leaving a phantom node.
func TestDeleteDefensiveRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := 3
	pts := randomPoints(rng, 60, d)
	tr := New(d, pts)

	// Corrupt: mark id 7's node deleted behind the tree's back, so the
	// coming tombstone search fails while the id table still lists the point.
	n := findNode(tr, tr.root, 7)
	if n == nilNode {
		t.Fatal("setup: node 7 not found")
	}
	tr.nodeW(n).deleted = true

	if !tr.Delete(7) {
		t.Fatal("Delete(7) reported missing")
	}
	if tr.Len() != len(pts)-1 {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(pts)-1)
	}
	if tr.Contains(7) {
		t.Fatal("deleted id still Contains")
	}
	checkTreeInvariants(t, tr)
	rest := make([]geom.Point, 0, len(pts)-1)
	for _, p := range pts {
		if p.ID != 7 {
			rest = append(rest, p)
		}
	}
	for q := 0; q < 10; q++ {
		u := randomUnit(rng, d)
		if !sameResults(tr.TopK(u, 6), bruteTopK(rest, u, 6)) {
			t.Fatal("TopK mismatch after defensive rebuild")
		}
	}
	// Normal operation continues after the recovery.
	tr.Insert(geom.Point{ID: 7, Coords: geom.Vector{0.5, 0.5, 0.5}})
	if !tr.Contains(7) || tr.Len() != len(pts) {
		t.Fatal("insert after defensive rebuild broken")
	}
	checkTreeInvariants(t, tr)
}

// A defensive rebuild inside a retain window must keep the window's
// tombstones, so as-of reads issued before AND after the rebuild stay
// exact.
func TestDeleteDefensiveRebuildDuringRetain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := 2
	pts := randomPoints(rng, 40, d)
	tr := New(d, pts)
	u := randomUnit(rng, d)

	base := tr.BeginRetain()
	tr.Delete(0)
	tr.Delete(1) // epochs base+1, base+2
	wantAfter1 := bruteTopK(pts[1:], u, 5)

	// Corrupt id 2's node and delete it: defensive rebuild, retaining.
	n := findNode(tr, tr.root, 2)
	if n == nilNode {
		t.Fatal("setup: node 2 not found")
	}
	tr.nodeW(n).deleted = true
	if !tr.Delete(2) {
		t.Fatal("Delete(2) reported missing")
	}

	// The read at epoch base+1 (after the first delete only) must still see
	// ids 1 and 2 and miss id 0.
	var sc QueryScratch
	if got := tr.TopKAtInto(u, 5, base+1, &sc); !sameResults(got, wantAfter1) {
		t.Fatalf("as-of read after defensive rebuild: got %v want %v", got, wantAfter1)
	}
	if _, ok := tr.PointByIDAt(0, base+1); ok {
		t.Fatal("id 0 visible after its tombstone epoch")
	}
	_, ok1 := tr.PointByIDAt(1, base+1)
	_, ok2 := tr.PointByIDAt(2, base+1)
	if !ok1 || !ok2 {
		t.Fatal("later-deleted ids invisible at earlier epoch")
	}
	tr.EndRetain()
	if !sameResults(tr.TopK(u, 5), bruteTopK(pts[3:], u, 5)) {
		t.Fatal("present read wrong after EndRetain")
	}
}
