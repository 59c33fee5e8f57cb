package rms

import (
	"math/rand"
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
	if mrr := MaxRegretRatio(hotelPoints(), res, 2, 1, 5000, 1); mrr > 0.12 {
		t.Fatalf("default-tuned result has mrr %v", mrr)
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

func TestComputeErrors(t *testing.T) {
	if _, err := Compute("NoSuch", hotelPoints(), 2, 1, 3, 1); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := Compute("Greedy", hotelPoints(), 2, 3, 3, 1); err == nil {
		t.Fatal("Greedy with k=3 should fail")
	}
}

func TestSkyline(t *testing.T) {
	sky := Skyline(hotelPoints())
	if len(sky) != 5 {
		t.Fatalf("|skyline| = %d, want 5", len(sky))
	}
}

func TestExactMaxRegretRatio(t *testing.T) {
	P := hotelPoints()
	v, err := ExactMaxRegretRatio(P, Skyline(P))
	if err != nil {
		t.Fatal(err)
	}
	if v > 1e-7 {
		t.Fatalf("skyline exact mrr = %v, want 0", v)
	}
	est := MaxRegretRatio(P, Skyline(P), 2, 1, 2000, 1)
	if est > 1e-9 {
		t.Fatalf("skyline sampled mrr = %v", est)
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
	dynMRR := MaxRegretRatio(cur, d.Result(), 3, 1, 10000, 2)
	sphere, err := Compute("Sphere", cur, 3, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sphMRR := MaxRegretRatio(cur, sphere, 3, 1, 10000, 2)
	if dynMRR > sphMRR+0.06 {
		t.Fatalf("dynamic mrr %v far above static Sphere %v", dynMRR, sphMRR)
	}
}
