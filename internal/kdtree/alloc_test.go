package kdtree

import (
	"math/rand"
	"testing"

	"fdrms/internal/geom"
)

// Steady-state tree queries through a warmed-up QueryScratch must not
// allocate at all: the arena holds the nodes, the scratch holds the
// frontier/result/sweep buffers, and the typed inline heaps never box.
// This pins the tentpole property of the allocation-free query engine; a
// regression here means a heap, closure, or boxing crept back into the
// branch-and-bound inner loop.
func TestQueryScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, d, k = 20000, 6, 64
	pts := randomPoints(rng, n, d)
	tr := New(d, pts)
	us := make([]geom.Vector, 32)
	for i := range us {
		us[i] = randomUnit(rng, d)
	}
	var sc QueryScratch

	// Warm the scratch across every query vector so steady-state runs only
	// reuse capacity.
	taus := make([]float64, len(us))
	for i, u := range us {
		res := tr.TopKInto(u, k, &sc)
		taus[i] = 0.98 * res[len(res)-1].Score
		tr.AtLeastInto(u, taus[i], &sc)
		tr.KthScoreAtInto(u, k, tr.Epoch(), &sc)
	}

	i := 0
	if a := testing.AllocsPerRun(200, func() {
		tr.TopKInto(us[i%len(us)], k, &sc)
		i++
	}); a != 0 {
		t.Fatalf("TopKInto allocates %.1f per op, want 0", a)
	}
	i = 0
	if a := testing.AllocsPerRun(200, func() {
		tr.AtLeastInto(us[i%len(us)], taus[i%len(us)], &sc)
		i++
	}); a != 0 {
		t.Fatalf("AtLeastInto allocates %.1f per op, want 0", a)
	}
	i = 0
	if a := testing.AllocsPerRun(200, func() {
		tr.KthScoreAtInto(us[i%len(us)], k, tr.Epoch(), &sc)
		i++
	}); a != 0 {
		t.Fatalf("KthScoreAtInto allocates %.1f per op, want 0", a)
	}
}

// Zero-alloc queries must survive churn: tombstones, rebuilds, and retain
// windows go through the same arena, so a warmed scratch stays warm.
func TestQueryScratchZeroAllocsAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const d, k = 4, 16
	tr := New(d, randomPoints(rng, 4000, d))
	for i := 0; i < 1500; i++ {
		tr.Delete(i)
	}
	for _, p := range randomPoints(rng, 1500, d) {
		p.ID += 100000
		tr.Insert(p)
	}
	u := randomUnit(rng, d)
	var sc QueryScratch
	tr.TopKInto(u, k, &sc)
	tr.AtLeastInto(u, 0.5, &sc)
	if a := testing.AllocsPerRun(200, func() {
		tr.TopKInto(u, k, &sc)
		tr.AtLeastInto(u, 0.5, &sc)
	}); a != 0 {
		t.Fatalf("post-churn queries allocate %.1f per op, want 0", a)
	}
}

// Randomized end-to-end check of the arena engine: under mixed churn inside
// a retain window, every scratch-reusing query at every epoch must agree
// with a brute-force scan of that epoch's snapshot. This is the referee for
// the arena layout (index links, SoA bounds, in-place rebuilds) across
// epoch-versioned reads.
func TestArenaQueriesMatchBruteForceAcrossEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(3)
		levels := 2 + rng.Intn(3) // coarse grid: exact ties everywhere
		tr := New(d, gridPointsKD(rng, 30, d, 0, levels))
		live := make(map[int]geom.Point)
		for _, p := range tr.Points() {
			live[p.ID] = p
		}

		snap := func() []geom.Point {
			out := make([]geom.Point, 0, len(live))
			for _, p := range live {
				out = append(out, p)
			}
			return out
		}

		base := tr.BeginRetain()
		snapshots := [][]geom.Point{snap()}
		next := 5000
		for op := 0; op < 40; op++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				var id int
				n := rng.Intn(len(live))
				for k := range live {
					if n == 0 {
						id = k
						break
					}
					n--
				}
				tr.Delete(id)
				delete(live, id)
			} else {
				p := gridPointsKD(rng, 1, d, next, levels)[0]
				next++
				// Replacing inserts advance the epoch twice; keep to fresh
				// ids so epochs map 1:1 onto snapshots.
				tr.Insert(p)
				live[p.ID] = p
			}
			snapshots = append(snapshots, snap())
		}

		var sc QueryScratch
		for off, state := range snapshots {
			e := base + uint64(off)
			for q := 0; q < 4; q++ {
				u := randomUnit(rng, d)
				k := 1 + rng.Intn(7)
				if got, want := tr.TopKAtInto(u, k, e, &sc), bruteTopK(state, u, k); !sameResults(got, want) {
					t.Fatalf("trial %d epoch +%d: TopKAtInto mismatch\n got %v\nwant %v", trial, off, got, want)
				}
				if s, ok := tr.KthScoreAtInto(u, k, e, &sc); ok {
					want := bruteTopK(state, u, k)
					if s != want[len(want)-1].Score {
						t.Fatalf("trial %d epoch +%d: KthScoreAtInto mismatch", trial, off)
					}
				} else if len(state) > 0 {
					t.Fatalf("trial %d epoch +%d: KthScoreAtInto !ok with %d live", trial, off, len(state))
				}
				tau := rng.Float64()
				got := make(map[int]bool)
				for _, r := range tr.AtLeastAtInto(u, tau, e, &sc) {
					got[r.Point.ID] = true
				}
				for _, p := range state {
					if (geom.Score(u, p) >= tau) != got[p.ID] {
						t.Fatalf("trial %d epoch +%d: AtLeastAtInto mismatch at %v", trial, off, p)
					}
				}
			}
		}
		tr.EndRetain()
	}
}

// BenchmarkTopKInto is the scratch-reusing query benchmark on uniform data;
// CI gates on its "0 allocs/op" report (see .github/workflows/ci.yml).
func BenchmarkTopKInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 50000, 6)
	tr := New(6, pts)
	us := make([]geom.Vector, 64)
	for i := range us {
		us[i] = randomUnit(rng, 6)
	}
	var sc QueryScratch
	for _, u := range us {
		tr.TopKInto(u, 10, &sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := sc.Nodes()
	for i := 0; i < b.N; i++ {
		tr.TopKInto(us[i%len(us)], 10, &sc)
	}
	reportNodes(b, &sc, start)
}

// BenchmarkPoints pins the exact-preallocation snapshot path.
func BenchmarkPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := New(6, randomPoints(rng, 50000, 6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Points(); len(got) != 50000 {
			b.Fatal("short snapshot")
		}
	}
}
