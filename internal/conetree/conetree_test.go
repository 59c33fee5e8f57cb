package conetree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fdrms/internal/geom"
)

func randomItems(rng *rand.Rand, n, d int) []Item {
	items := make([]Item, n)
	for i := range items {
		u := make(geom.Vector, d)
		for j := range u {
			x := rng.NormFloat64()
			if x < 0 {
				x = -x
			}
			u[j] = x
		}
		geom.Normalize(u)
		items[i] = Item{ID: i, U: u, Threshold: 0.2 + rng.Float64()*0.8}
	}
	return items
}

func randomPoint(rng *rand.Rand, d int) geom.Point {
	v := make(geom.Vector, d)
	for j := range v {
		v[j] = rng.Float64()
	}
	return geom.Point{ID: 0, Coords: v}
}

// bruteAffected is the linear-scan reference for Affected.
func bruteAffected(items map[int]Item, p geom.Point) []int {
	var out []int
	//fdrms:orderinvariant out is sorted before return
	for id, it := range items {
		if geom.Score(it.U, p) >= it.Threshold {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// sortedIDs returns the reference model's ids in ascending order. Property
// tests pick their targets through it so a failing seed replays the exact
// same operation schedule instead of one sampled from map iteration order.
func sortedIDs(ref map[int]Item) []int {
	ids := make([]int, 0, len(ref))
	//fdrms:orderinvariant ids are sorted before return
	for id := range ref {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAffectedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(5)
		items := randomItems(rng, 1+rng.Intn(300), d)
		tr := New(d, items)
		ref := make(map[int]Item, len(items))
		for _, it := range items {
			ref[it.ID] = it
		}
		for q := 0; q < 10; q++ {
			p := randomPoint(rng, d)
			got := sortedCopy(tr.Affected(p))
			want := bruteAffected(ref, p)
			if !equalInts(got, want) {
				t.Fatalf("trial %d: Affected mismatch\n got %v\nwant %v", trial, got, want)
			}
		}
	}
}

func TestAffectedEmptyTree(t *testing.T) {
	tr := New(3, nil)
	if got := tr.Affected(geom.NewPoint(0, 1, 1, 1)); got != nil {
		t.Fatalf("empty tree Affected = %v", got)
	}
	if tr.Visited(geom.NewPoint(0, 1, 1, 1)) != 0 {
		t.Fatal("empty tree Visited != 0")
	}
}

func TestSetThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 3
	items := randomItems(rng, 100, d)
	tr := New(d, items)
	ref := make(map[int]Item, len(items))
	for _, it := range items {
		ref[it.ID] = it
	}
	// Randomly mutate thresholds and recheck correctness each time.
	for i := 0; i < 300; i++ {
		id := rng.Intn(100)
		tau := rng.Float64() * 1.5
		tr.SetThreshold(id, tau)
		it := ref[id]
		it.Threshold = tau
		ref[id] = it
		if i%20 == 0 {
			p := randomPoint(rng, d)
			if !equalInts(sortedCopy(tr.Affected(p)), bruteAffected(ref, p)) {
				t.Fatalf("Affected mismatch after threshold update %d", i)
			}
		}
	}
	if tau, ok := tr.Threshold(5); !ok || tau != ref[5].Threshold {
		t.Fatalf("Threshold(5) = %v,%v want %v", tau, ok, ref[5].Threshold)
	}
	if _, ok := tr.Threshold(12345); ok {
		t.Fatal("Threshold of missing id should report !ok")
	}
	tr.SetThreshold(99999, 1) // must be a harmless no-op
}

func TestIdenticalDirections(t *testing.T) {
	// Degenerate split: many copies of the same direction must still build.
	items := make([]Item, 40)
	for i := range items {
		items[i] = Item{ID: i, U: geom.Vector{1, 0}, Threshold: 0.5}
	}
	tr := New(2, items)
	got := tr.Affected(geom.NewPoint(0, 0.7, 0.0))
	if len(got) != 40 {
		t.Fatalf("Affected returned %d of 40 identical directions", len(got))
	}
}

// Visited must never be smaller than the number of affected utilities
// (pruning is conservative) and never larger than the index size.
func TestVisitedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 5
	items := randomItems(rng, 400, d)
	tr := New(d, items)
	for q := 0; q < 30; q++ {
		p := randomPoint(rng, d)
		visited := tr.Visited(p)
		affected := len(tr.Affected(p))
		if visited < affected {
			t.Fatalf("Visited %d < Affected %d", visited, affected)
		}
		if visited > tr.Len() {
			t.Fatalf("Visited %d > Len %d", visited, tr.Len())
		}
	}
}

// Pruning must actually help on clustered thresholds: with uniformly high
// thresholds and a weak point, almost everything should be pruned.
func TestPruningEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 4
	items := randomItems(rng, 1000, d)
	for i := range items {
		items[i].Threshold = 0.9
	}
	tr := New(d, items)
	weak := geom.NewPoint(0, 0.1, 0.1, 0.1, 0.1) // max possible score 0.2·sqrt(d) < 0.9
	if got := tr.Affected(weak); len(got) != 0 {
		t.Fatalf("weak point affected %d utilities", len(got))
	}
	if visited := tr.Visited(weak); visited > 100 {
		t.Errorf("pruning ineffective: visited %d of 1000 for a hopeless point", visited)
	}
}

// Property: Affected is exact under random threshold updates.
func TestAffectedExactQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(4)
		items := randomItems(rng, 1+rng.Intn(40), d)
		tr := New(d, items)
		ref := make(map[int]Item, len(items))
		for _, it := range items {
			ref[it.ID] = it
		}
		for op := 0; op < 60; op++ {
			id := sortedIDs(ref)[rng.Intn(len(ref))]
			tau := rng.Float64()
			tr.SetThreshold(id, tau)
			it := ref[id]
			it.Threshold = tau
			ref[id] = it
		}
		p := randomPoint(rng, d)
		return equalInts(sortedCopy(tr.Affected(p)), bruteAffected(ref, p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// New must deduplicate ids: a slice with repeated ids must not plant the
// same id in two leaf slots. The last item of a duplicated id wins.
func TestNewDuplicateIDs(t *testing.T) {
	items := []Item{
		{ID: 0, U: geom.Vector{1, 0}, Threshold: 0.9},
		{ID: 0, U: geom.Vector{0, 1}, Threshold: 0.1}, // replaces the first
		{ID: 1, U: geom.Vector{1, 0}, Threshold: 0.5},
	}
	tr := New(2, items)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 distinct ids", tr.Len())
	}
	// Only the last copy of id 0 (direction y, threshold 0.1) may match.
	got := sortedCopy(tr.Affected(geom.NewPoint(0, 0.0, 0.8)))
	if !equalInts(got, []int{0}) {
		t.Fatalf("Affected = %v, want [0]", got)
	}
}

// Many duplicates spanning several leaves, checked against brute force.
func TestNewDuplicateIDsManyLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := 3
	base := randomItems(rng, 40, d)
	items := append(append([]Item(nil), base...), base[:20]...) // 20 ids twice
	tr := New(d, items)
	if tr.Len() != 40 {
		t.Fatalf("Len = %d, want 40", tr.Len())
	}
	ref := make(map[int]Item, len(base))
	for _, it := range base {
		ref[it.ID] = it
	}
	for q := 0; q < 20; q++ {
		p := randomPoint(rng, d)
		if !equalInts(sortedCopy(tr.Affected(p)), bruteAffected(ref, p)) {
			t.Fatalf("Affected mismatch on query %d", q)
		}
	}
}

func BenchmarkAffected(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := 6
	items := randomItems(rng, 4096, d)
	tr := New(d, items)
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = randomPoint(rng, d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Affected(pts[i%len(pts)])
	}
}
