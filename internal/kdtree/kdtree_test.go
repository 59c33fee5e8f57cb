package kdtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fdrms/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = geom.Point{ID: i, Coords: v}
	}
	return pts
}

func randomUnit(rng *rand.Rand, d int) geom.Vector {
	u := make(geom.Vector, d)
	for i := range u {
		x := rng.NormFloat64()
		if x < 0 {
			x = -x
		}
		u[i] = x
	}
	return geom.Normalize(u)
}

// bruteTopK is the linear-scan reference.
func bruteTopK(pts []geom.Point, u geom.Vector, k int) []Result {
	res := make([]Result, 0, len(pts))
	for _, p := range pts {
		res = append(res, Result{p, geom.Score(u, p)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].Point.ID < res[j].Point.ID
	})
	if len(res) > k {
		res = res[:k]
	}
	return res
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Same score is enough: equal-score points are interchangeable in
		// every consumer, and ID order on ties makes this deterministic.
		if a[i].Point.ID != b[i].Point.ID {
			return false
		}
	}
	return true
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n, d := 1+rng.Intn(200), 2+rng.Intn(5)
		pts := randomPoints(rng, n, d)
		tr := New(d, pts)
		for q := 0; q < 10; q++ {
			u := randomUnit(rng, d)
			k := 1 + rng.Intn(10)
			got := tr.TopK(u, k)
			want := bruteTopK(pts, u, k)
			if !sameResults(got, want) {
				t.Fatalf("trial %d: TopK mismatch\n got %v\nwant %v", trial, got, want)
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	tr := New(2, nil)
	if got := tr.TopK(geom.Vector{1, 0}, 3); got != nil {
		t.Fatalf("empty tree TopK = %v", got)
	}
	tr.Insert(geom.NewPoint(0, 0.5, 0.5))
	if got := tr.TopK(geom.Vector{1, 0}, 0); got != nil {
		t.Fatalf("k=0 TopK = %v", got)
	}
	got := tr.TopK(geom.Vector{1, 0}, 5)
	if len(got) != 1 {
		t.Fatalf("k beyond size: got %d results", len(got))
	}
}

func TestAtLeastMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n, d := 1+rng.Intn(150), 2+rng.Intn(4)
		pts := randomPoints(rng, n, d)
		tr := New(d, pts)
		u := randomUnit(rng, d)
		tau := rng.Float64()
		got := make(map[int]bool)
		for _, r := range tr.AtLeast(u, tau) {
			got[r.Point.ID] = true
		}
		for _, p := range pts {
			in := geom.Score(u, p) >= tau
			if in != got[p.ID] {
				t.Fatalf("AtLeast mismatch at point %v (score %v, tau %v)", p, geom.Score(u, p), tau)
			}
		}
	}
}

// approxTopK composes Φ_{k,ε}(u, P) from the *Into kernels the top-k
// engine uses: every live point scoring at least (1-ε)·ω_k, sorted by
// decreasing score.
func approxTopK(tr *Tree, u geom.Vector, k int, eps float64) []Result {
	var sc QueryScratch
	kth, ok := tr.KthScoreAtInto(u, k, tr.Epoch(), &sc)
	if !ok {
		return nil
	}
	out := copyResults(tr.AtLeastInto(u, (1-eps)*kth, &sc))
	sortResults(out)
	return out
}

func TestApproxTopKContainsTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 300, 4)
	tr := New(4, pts)
	u := randomUnit(rng, 4)
	for _, k := range []int{1, 3, 10} {
		top := tr.TopK(u, k)
		approx := approxTopK(tr, u, k, 0.05)
		member := make(map[int]bool)
		for _, r := range approx {
			member[r.Point.ID] = true
		}
		for _, r := range top {
			if !member[r.Point.ID] {
				t.Fatalf("top-%d point %v missing from ApproxTopK", k, r.Point)
			}
		}
		// Every member satisfies the threshold.
		kth := top[len(top)-1].Score
		for _, r := range approx {
			if r.Score < (1-0.05)*kth-1e-12 {
				t.Fatalf("ApproxTopK member below threshold: %v < %v", r.Score, (1-0.05)*kth)
			}
		}
	}
}

func TestApproxTopKFewerThanK(t *testing.T) {
	pts := []geom.Point{geom.NewPoint(0, 0.9, 0.1), geom.NewPoint(1, 0.1, 0.9)}
	tr := New(2, pts)
	// k=5 > n=2: everything is a top-k member.
	res := approxTopK(tr, geom.Vector{1, 0}, 5, 0.1)
	if len(res) != 2 {
		t.Fatalf("want both points, got %v", res)
	}
}

func TestInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 3
	tr := New(d, nil)
	live := make(map[int]geom.Point)
	next := 0
	for op := 0; op < 2000; op++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			v := make(geom.Vector, d)
			for j := range v {
				v[j] = rng.Float64()
			}
			p := geom.Point{ID: next, Coords: v}
			next++
			tr.Insert(p)
			live[p.ID] = p
		} else {
			var id int
			stop := rng.Intn(len(live))
			i := 0
			for k := range live {
				if i == stop {
					id = k
					break
				}
				i++
			}
			if !tr.Delete(id) {
				t.Fatalf("Delete(%d) reported missing", id)
			}
			delete(live, id)
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
		}
	}
	// Full queries after churn must match brute force.
	pts := make([]geom.Point, 0, len(live))
	for _, p := range live {
		pts = append(pts, p)
	}
	for q := 0; q < 20; q++ {
		u := randomUnit(rng, d)
		if !sameResults(tr.TopK(u, 7), bruteTopK(pts, u, 7)) {
			t.Fatal("TopK mismatch after churn")
		}
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New(2, []geom.Point{geom.NewPoint(0, 0.1, 0.2)})
	if tr.Delete(99) {
		t.Fatal("deleting a missing ID should report false")
	}
	if !tr.Delete(0) || tr.Delete(0) {
		t.Fatal("first delete true, second false expected")
	}
}

func TestInsertReplacesSameID(t *testing.T) {
	tr := New(2, []geom.Point{geom.NewPoint(0, 0.1, 0.2)})
	tr.Insert(geom.NewPoint(0, 0.9, 0.9))
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	got := tr.TopK(geom.Vector{1, 0}, 1)
	if got[0].Point.Coords[0] != 0.9 {
		t.Fatalf("stale point after replace: %v", got[0].Point)
	}
}

func TestRebuildAfterManyDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 500, 3)
	tr := New(3, pts)
	for i := 0; i < 400; i++ {
		tr.Delete(i)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	// Tree must have been rebuilt (tombstones purged) and stay correct.
	rest := pts[400:]
	u := randomUnit(rng, 3)
	if !sameResults(tr.TopK(u, 5), bruteTopK(rest, u, 5)) {
		t.Fatal("TopK mismatch after rebuild")
	}
	if tr.removed != 0 && tr.removed > tr.Len() {
		t.Fatalf("rebuild did not trigger: removed=%d live=%d", tr.removed, tr.Len())
	}
}

func TestKthScore(t *testing.T) {
	pts := []geom.Point{
		geom.NewPoint(0, 1.0, 0),
		geom.NewPoint(1, 0.8, 0),
		geom.NewPoint(2, 0.6, 0),
	}
	tr := New(2, pts)
	u := geom.Vector{1, 0}
	if s, ok := tr.KthScore(u, 2); !ok || s != 0.8 {
		t.Fatalf("KthScore(2) = %v,%v", s, ok)
	}
	if s, ok := tr.KthScore(u, 10); !ok || s != 0.6 {
		t.Fatalf("KthScore(10) = %v,%v (want min score)", s, ok)
	}
	empty := New(2, nil)
	if _, ok := empty.KthScore(u, 1); ok {
		t.Fatal("empty tree KthScore should report !ok")
	}
}

// Property: liveCount bookkeeping stays consistent under random churn.
func TestLiveCountInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		tr := New(d, randomPoints(rng, 20, d))
		for op := 0; op < 60; op++ {
			if rng.Intn(2) == 0 {
				v := make(geom.Vector, d)
				for j := range v {
					v[j] = rng.Float64()
				}
				tr.Insert(geom.Point{ID: 1000 + op, Coords: v})
			} else {
				ids := tr.Points()
				if len(ids) > 0 {
					tr.Delete(ids[rng.Intn(len(ids))].ID)
				}
			}
		}
		var count func(idx int32) int
		count = func(idx int32) int {
			if idx == nilNode {
				return 0
			}
			n := tr.node(idx)
			c := count(n.left) + count(n.right)
			if !n.deleted {
				c++
			}
			if n.liveCount != int32(c) {
				return -1 << 30
			}
			return c
		}
		return count(tr.root) == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 50000, 6)
	tr := New(6, pts)
	us := make([]geom.Vector, 64)
	for i := range us {
		us[i] = randomUnit(rng, 6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TopK(us[i%len(us)], 10)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := New(6, randomPoints(rng, 10000, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := make(geom.Vector, 6)
		for j := range v {
			v[j] = rng.Float64()
		}
		tr.Insert(geom.Point{ID: 100000 + i, Coords: v})
	}
}
