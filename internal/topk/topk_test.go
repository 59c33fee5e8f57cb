package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fdrms/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d, idBase int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = geom.Point{ID: idBase + i, Coords: v}
	}
	return pts
}

func randomUtilities(rng *rand.Rand, m, d int) []Utility {
	out := make([]Utility, m)
	for i := range out {
		u := make(geom.Vector, d)
		for j := range u {
			x := rng.NormFloat64()
			if x < 0 {
				x = -x
			}
			u[j] = x
		}
		geom.Normalize(u)
		out[i] = Utility{ID: i, U: u}
	}
	return out
}

// pickLive selects a deterministic random victim from the live-point map:
// the keys are sorted first so a failing seed replays the exact same
// operation schedule instead of one sampled from map iteration order.
func pickLive(rng *rand.Rand, live map[int]geom.Point) int {
	ids := make([]int, 0, len(live))
	//fdrms:orderinvariant ids are sorted before use
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}

// brutePhi computes Φ_{k,ε}(u, pts) by linear scan.
func brutePhi(u geom.Vector, pts []geom.Point, k int, eps float64) map[int]bool {
	out := make(map[int]bool)
	if len(pts) == 0 {
		return out
	}
	scores := make([]float64, len(pts))
	for i, p := range pts {
		scores[i] = geom.Score(u, p)
	}
	sorted := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var kth float64
	if len(sorted) < k {
		kth = math.Inf(-1)
	} else {
		kth = sorted[k-1]
	}
	tau := (1 - eps) * kth
	if math.IsInf(kth, -1) {
		tau = math.Inf(-1)
	}
	for i, p := range pts {
		if scores[i] >= tau {
			out[p.ID] = true
		}
	}
	return out
}

// checkEngine verifies every utility's Φ against brute force and the
// inverted sets against Φ.
func checkEngine(t *testing.T, e *Engine, utilities []Utility, pts []geom.Point) {
	t.Helper()
	for _, ut := range utilities {
		want := brutePhi(ut.U, pts, e.K(), e.Epsilon())
		got := e.Members(ut.ID)
		if len(got) != len(want) {
			t.Fatalf("utility %d: |Φ| = %d, want %d", ut.ID, len(got), len(want))
		}
		//fdrms:orderinvariant conjunctive membership check, any order
		for pid := range want {
			if _, ok := got[pid]; !ok {
				t.Fatalf("utility %d: missing member %d", ut.ID, pid)
			}
		}
	}
	// Inverted index consistency.
	for _, p := range pts {
		for _, uid := range e.SetOf(p.ID) {
			if _, ok := e.Members(uid)[p.ID]; !ok {
				t.Fatalf("S(p%d) contains u%d but Φ(u%d) misses p%d", p.ID, uid, uid, p.ID)
			}
		}
	}
}

func TestInitialState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, k, eps := 3, 2, 0.05
	pts := randomPoints(rng, 100, d, 0)
	utils := randomUtilities(rng, 20, d)
	e := NewEngine(d, k, eps, pts, utils)
	checkEngine(t, e, utils, pts)
	if e.Len() != 100 || e.NumUtilities() != 20 {
		t.Fatalf("Len=%d NumUtilities=%d", e.Len(), e.NumUtilities())
	}
}

func TestInsertDeleteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, k, eps := 3, 3, 0.1
	pts := randomPoints(rng, 60, d, 0)
	utils := randomUtilities(rng, 15, d)
	e := NewEngine(d, k, eps, pts, utils)

	live := make(map[int]geom.Point, len(pts))
	for _, p := range pts {
		live[p.ID] = p
	}
	next := 1000
	for op := 0; op < 300; op++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			p := randomPoints(rng, 1, d, next)[0]
			next++
			e.Insert(p)
			live[p.ID] = p
		} else {
			id := pickLive(rng, live)
			e.Delete(id)
			delete(live, id)
		}
		if op%25 == 0 {
			cur := make([]geom.Point, 0, len(live))
			//fdrms:orderinvariant brutePhi's result is a threshold set, independent of input order
			for _, p := range live {
				cur = append(cur, p)
			}
			checkEngine(t, e, utils, cur)
		}
	}
}

// Changes must be a correct delta: replaying them over the previous
// membership snapshot yields the new membership.
func TestChangesAreExactDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, k, eps := 4, 2, 0.08
	pts := randomPoints(rng, 80, d, 0)
	utils := randomUtilities(rng, 12, d)
	e := NewEngine(d, k, eps, pts, utils)

	snapshot := func() map[int]map[int]bool {
		out := make(map[int]map[int]bool)
		for _, ut := range utils {
			m := make(map[int]bool)
			//fdrms:orderinvariant building a set, insertion order immaterial
			for pid := range e.Members(ut.ID) {
				m[pid] = true
			}
			out[ut.ID] = m
		}
		return out
	}

	prev := snapshot()
	live := make(map[int]geom.Point)
	for _, p := range pts {
		live[p.ID] = p
	}
	next := 5000
	for op := 0; op < 150; op++ {
		var changes []Change
		if rng.Intn(2) == 0 || len(live) == 0 {
			p := randomPoints(rng, 1, d, next)[0]
			next++
			changes = e.Insert(p)
			live[p.ID] = p
		} else {
			id := pickLive(rng, live)
			changes = e.Delete(id)
			delete(live, id)
		}
		for _, c := range changes {
			if c.Added {
				if prev[c.UtilityID][c.PointID] {
					t.Fatalf("op %d: add change for existing member u%d/p%d", op, c.UtilityID, c.PointID)
				}
				prev[c.UtilityID][c.PointID] = true
			} else {
				if !prev[c.UtilityID][c.PointID] {
					t.Fatalf("op %d: remove change for non-member u%d/p%d", op, c.UtilityID, c.PointID)
				}
				delete(prev[c.UtilityID], c.PointID)
			}
		}
		now := snapshot()
		//fdrms:orderinvariant each utility is checked independently; pass/fail does not depend on order
		for uid, m := range now {
			if len(m) != len(prev[uid]) {
				t.Fatalf("op %d: replayed membership of u%d has %d members, engine has %d", op, uid, len(prev[uid]), len(m))
			}
			//fdrms:orderinvariant conjunctive membership check, any order
			for pid := range m {
				if !prev[uid][pid] {
					t.Fatalf("op %d: replay misses u%d/p%d", op, uid, pid)
				}
			}
		}
	}
}

func TestDeleteMissingIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 10, 2, 0)
	e := NewEngine(2, 1, 0.05, pts, randomUtilities(rng, 3, 2))
	if got := e.Delete(999); got != nil {
		t.Fatalf("Delete(missing) = %v", got)
	}
}

func TestInsertReplacesExistingID(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 2
	pts := randomPoints(rng, 20, d, 0)
	utils := randomUtilities(rng, 5, d)
	e := NewEngine(d, 2, 0.05, pts, utils)
	p := geom.NewPoint(3, 0.99, 0.99) // replaces id 3 with a dominant point
	e.Insert(p)
	cur := []geom.Point{p}
	for _, q := range pts {
		if q.ID != 3 {
			cur = append(cur, q)
		}
	}
	checkEngine(t, e, utils, cur)
	if e.Len() != 20 {
		t.Fatalf("Len = %d, want 20", e.Len())
	}
}

func TestFewerPointsThanK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, k := 2, 5
	utils := randomUtilities(rng, 4, d)
	e := NewEngine(d, k, 0.1, nil, utils)
	if e.Len() != 0 {
		t.Fatal("expected empty engine")
	}
	// With fewer than k tuples, every tuple is a member for every utility.
	var pts []geom.Point
	for i := 0; i < 3; i++ {
		p := randomPoints(rng, 1, d, i)[0]
		e.Insert(p)
		pts = append(pts, p)
		checkEngine(t, e, utils, pts)
		for _, ut := range utils {
			if len(e.Members(ut.ID)) != i+1 {
				t.Fatalf("after %d inserts, |Φ| = %d", i+1, len(e.Members(ut.ID)))
			}
		}
	}
	// KthScore must report !ok below k tuples.
	if _, ok := e.KthScore(utils[0].ID); ok {
		t.Fatal("KthScore should be !ok with fewer than k tuples")
	}
}

func TestTopKAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, k := 3, 4
	pts := randomPoints(rng, 40, d, 0)
	utils := randomUtilities(rng, 5, d)
	e := NewEngine(d, k, 0.05, pts, utils)
	for _, ut := range utils {
		topk := e.TopK(ut.ID)
		if len(topk) != k {
			t.Fatalf("topk length = %d", len(topk))
		}
		// Must equal brute-force top-k scores.
		scores := make([]float64, len(pts))
		for i, p := range pts {
			scores[i] = geom.Score(ut.U, p)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		for i := 0; i < k; i++ {
			if math.Abs(topk[i].Score-scores[i]) > 1e-12 {
				t.Fatalf("topk[%d] = %v, want %v", i, topk[i].Score, scores[i])
			}
		}
	}
	if e.TopK(12345) != nil {
		t.Fatal("TopK of unknown utility should be nil")
	}
}

// Property: membership stays exact under arbitrary mixed operations.
func TestEngineExactQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		k := 1 + rng.Intn(3)
		eps := rng.Float64() * 0.2
		pts := randomPoints(rng, 10+rng.Intn(30), d, 0)
		utils := randomUtilities(rng, 3+rng.Intn(8), d)
		e := NewEngine(d, k, eps, pts, utils)
		live := make(map[int]geom.Point)
		for _, p := range pts {
			live[p.ID] = p
		}
		next := 1000
		for op := 0; op < 50; op++ {
			switch rng.Intn(3) {
			case 0, 1:
				p := randomPoints(rng, 1, d, next)[0]
				next++
				e.Insert(p)
				live[p.ID] = p
			case 2:
				if len(live) == 0 {
					continue
				}
				id := pickLive(rng, live)
				e.Delete(id)
				delete(live, id)
			}
		}
		cur := make([]geom.Point, 0, len(live))
		//fdrms:orderinvariant brutePhi's result is a threshold set, independent of input order
		for _, p := range live {
			cur = append(cur, p)
		}
		for _, ut := range utils {
			want := brutePhi(ut.U, cur, k, eps)
			got := e.Members(ut.ID)
			if len(got) != len(want) {
				return false
			}
			//fdrms:orderinvariant conjunctive membership check, any order
			for pid := range want {
				if _, ok := got[pid]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, k := 6, 1
	pts := randomPoints(rng, 20000, d, 0)
	utils := randomUtilities(rng, 1024, d)
	e := NewEngine(d, k, 0.01, pts, utils)
	ins := randomPoints(rng, b.N, d, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Insert(ins[i])
	}
}

func BenchmarkEngineDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d, k := 6, 1
	pts := randomPoints(rng, b.N+20000, d, 0)
	utils := randomUtilities(rng, 1024, d)
	e := NewEngine(d, k, 0.01, pts, utils)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Delete(i)
	}
}
