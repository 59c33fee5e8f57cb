package rms

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// pickLive selects a deterministic random victim from the live-point map:
// the keys are sorted first so a failing seed replays the exact same
// deletion schedule instead of one sampled from map iteration order.
func pickLive(rng *rand.Rand, live map[int]Point) int {
	ids := make([]int, 0, len(live))
	//fdrms:orderinvariant ids are sorted before use
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}

func hotelPoints() []Point {
	// The paper's Fig. 1 tuples, read as (x = price score, y = rating).
	return []Point{
		{ID: 1, Values: []float64{0.2, 1.0}},
		{ID: 2, Values: []float64{0.6, 0.8}},
		{ID: 3, Values: []float64{0.7, 0.5}},
		{ID: 4, Values: []float64{1.0, 0.1}},
		{ID: 5, Values: []float64{0.4, 0.3}},
		{ID: 6, Values: []float64{0.2, 0.7}},
		{ID: 7, Values: []float64{0.3, 0.9}},
		{ID: 8, Values: []float64{0.6, 0.6}},
	}
}

func randomPoints(rng *rand.Rand, n, d, base int) []Point {
	out := make([]Point, n)
	for i := range out {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = Point{ID: base + i, Values: v}
	}
	return out
}

func TestNewDynamicDefaults(t *testing.T) {
	d, err := NewDynamic(2, hotelPoints(), Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 8 {
		t.Fatalf("Len = %d", d.Len())
	}
	res := d.Result()
	if len(res) == 0 || len(res) > 3 {
		t.Fatalf("|Result| = %d", len(res))
	}
	if mrr, err := MaxRegretRatio(hotelPoints(), res, 2, 1, 5000, 1); err != nil || mrr > 0.12 {
		t.Fatalf("default-tuned result has mrr %v (err %v)", mrr, err)
	}
}

func TestDynamicLifecycle(t *testing.T) {
	d, err := NewDynamic(2, hotelPoints(), Options{K: 1, R: 3, Epsilon: 0.01, MaxUtilities: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(Point{ID: 9, Values: []float64{0.9, 0.6}}); err != nil {
		t.Fatal(err)
	}
	if !d.Contains(9) || d.Len() != 9 {
		t.Fatal("insert not reflected")
	}
	d.Delete(1)
	if d.Contains(1) || d.Len() != 8 {
		t.Fatal("delete not reflected")
	}
	for _, p := range d.Result() {
		if p.ID == 1 {
			t.Fatal("deleted tuple in result")
		}
	}
	if st := d.Stats(); st.CoverSize > 3 {
		t.Fatalf("cover size %d > r", st.CoverSize)
	}
}

func TestDynamicBadInputs(t *testing.T) {
	if _, err := NewDynamic(0, nil, Options{}); err == nil {
		t.Fatal("dim 0 should fail")
	}
	d, err := NewDynamic(2, hotelPoints(), Options{R: 3, Epsilon: 0.01, MaxUtilities: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(Point{ID: 10, Values: []float64{1, 2, 3}}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestComputeAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	P := randomPoints(rng, 150, 3, 0)
	for _, name := range Algorithms() {
		if name == "DP-2D" {
			continue // needs dim == 2, covered below
		}
		Q, err := Compute(name, P, 3, 1, 6, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(Q) == 0 || len(Q) > 6 {
			t.Fatalf("%s: |Q| = %d", name, len(Q))
		}
	}
	if _, err := Compute("DP-2D", hotelPoints(), 2, 1, 3, 1); err != nil {
		t.Fatal(err)
	}
}

// Every static algorithm answers the same on a shuffled copy of its input:
// the caller's tuple order (a map's, say) must not leak into the answer.
func TestComputeIndependentOfInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{2, 4} {
		P := randomPoints(rng, 300, d, 0)
		shuffled := slices.Clone(P)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, name := range Algorithms() {
			if name == "DP-2D" && d != 2 {
				continue
			}
			for k := 1; k <= 3; k++ {
				a, err := Compute(name, P, d, k, 8, 1)
				if err != nil {
					continue // k unsupported; TestComputeErrors covers the error
				}
				b, err := Compute(name, shuffled, d, k, 8, 1)
				if err != nil {
					t.Fatalf("%s d=%d k=%d: shuffled input fails: %v", name, d, k, err)
				}
				if ia, ib := sortedIDs(a), sortedIDs(b); !slices.Equal(ia, ib) {
					t.Errorf("%s d=%d k=%d: %v on the input, %v on a shuffled copy", name, d, k, ia, ib)
				}
			}
		}
	}
}

// sortedIDs returns the ids of pts in ascending order.
func sortedIDs(pts []Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	slices.Sort(out)
	return out
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute("NoSuch", hotelPoints(), 2, 1, 3, 1); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := Compute("Greedy", hotelPoints(), 2, 3, 3, 1); err == nil {
		t.Fatal("Greedy with k=3 should fail")
	}
}

func TestSkyline(t *testing.T) {
	sky, err := Skyline(hotelPoints(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) != 5 {
		t.Fatalf("|skyline| = %d, want 5", len(sky))
	}
}

func TestExactMaxRegretRatio(t *testing.T) {
	P := hotelPoints()
	sky, err := Skyline(P, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ExactMaxRegretRatio(P, sky, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1e-7 {
		t.Fatalf("skyline exact mrr = %v, want 0", v)
	}
	est, err := MaxRegretRatio(P, sky, 2, 1, 2000, 1)
	if err != nil || est > 1e-9 {
		t.Fatalf("skyline sampled mrr = %v (err %v)", est, err)
	}
}

// End-to-end: dynamic maintenance tracks static recomputation quality over
// a churn-heavy session.
func TestDynamicVsStaticEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	P := randomPoints(rng, 300, 3, 0)
	d, err := NewDynamic(3, P[:150], Options{K: 1, R: 8, Epsilon: 0.01, MaxUtilities: 512})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int]Point)
	for _, p := range P[:150] {
		live[p.ID] = p
	}
	for _, p := range P[150:] {
		if err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		live[p.ID] = p
	}
	for i := 0; i < 100; i++ {
		id := pickLive(rng, live)
		d.Delete(id)
		delete(live, id)
	}
	cur := make([]Point, 0, len(live))
	//fdrms:orderinvariant cur is sorted by id immediately below
	for _, p := range live {
		cur = append(cur, p)
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].ID < cur[j].ID })
	dynMRR, err := MaxRegretRatio(cur, d.Result(), 3, 1, 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sphere, err := Compute("Sphere", cur, 3, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sphMRR, err := MaxRegretRatio(cur, sphere, 3, 1, 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dynMRR > sphMRR+0.06 {
		t.Fatalf("dynamic mrr %v far above static Sphere %v", dynMRR, sphMRR)
	}
}
