package rms_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fdrms/rms"
)

// probeUtilities returns a few fixed nonnegative unit-ish preference vectors
// for query-path tests (basis directions plus mixtures).
func probeUtilities(d int) [][]float64 {
	us := make([][]float64, 0, d+2)
	for i := 0; i < d; i++ {
		u := make([]float64, d)
		u[i] = 1
		us = append(us, u)
	}
	uniform := make([]float64, d)
	skew := make([]float64, d)
	for i := range uniform {
		uniform[i] = 1
		skew[i] = float64(i + 1)
	}
	return append(us, uniform, skew)
}

// bruteTopK is the linear-scan reference for Generation.TopK.
func bruteTopK(pts []rms.Point, u []float64, k int) []rms.Scored {
	out := make([]rms.Scored, 0, len(pts))
	for _, p := range pts {
		s := 0.0
		for j, uj := range u {
			s += uj * p.Values[j]
		}
		out = append(out, rms.Scored{Point: p, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Point.ID < out[j].Point.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// bruteRegret mirrors the convention of internal/regret.RatioForUtility.
func bruteRegret(pts, q []rms.Point, u []float64, k int) float64 {
	if len(pts) == 0 {
		return 0
	}
	scores := make([]float64, len(pts))
	for i, p := range pts {
		for j, uj := range u {
			scores[i] += uj * p.Values[j]
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if k > len(scores) {
		k = len(scores)
	}
	kth := scores[k-1]
	if kth <= 0 {
		return 0
	}
	if len(q) == 0 {
		return 1
	}
	best := 0.0
	for i, p := range q {
		s := 0.0
		for j, uj := range u {
			s += uj * p.Values[j]
		}
		if i == 0 || s > best {
			best = s
		}
	}
	if r := 1 - best/kth; r > 0 {
		return r
	}
	return 0
}

// TopK and RegretRatioFor must agree with a linear scan over the live set.
func TestGenerationQueriesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := 4
	pts := randomTuples(rng, 150, d, 0)
	opts := rms.Options{K: 3, R: 6, Epsilon: 0.02, MaxUtilities: 128, Seed: 7, Shards: 2}
	store, err := rms.NewStore(d, pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate so the pinned view is not just the initial build.
	var batch []rms.Update
	for _, p := range randomTuples(rng, 60, d, 1000) {
		batch = append(batch, rms.Ins(p))
	}
	for id := 0; id < 40; id++ {
		batch = append(batch, rms.Del(id))
	}
	if err := store.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	live := append([]rms.Point(nil), pts[40:]...)
	for _, u := range batch {
		if !u.Delete {
			live = append(live, u.Point)
		}
	}
	g := store.Current()
	if g.Len() != len(live) {
		t.Fatalf("generation len %d, want %d", g.Len(), len(live))
	}
	for _, u := range probeUtilities(d) {
		for _, k := range []int{1, 3, 10} {
			got, err := g.TopK(u, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteTopK(live, u, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("TopK(%v, %d):\n got %v\nwant %v", u, k, got, want)
			}
		}
		got, err := g.RegretRatioFor(u)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRegret(live, g.Result(), u, 3)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("RegretRatioFor(%v) = %v, want %v", u, got, want)
		}
	}

	// Validation errors.
	if _, err := g.TopK([]float64{1, 2}, 3); err == nil {
		t.Fatal("TopK accepted a wrong-dimension utility")
	}
	if _, err := g.TopK(probeUtilities(d)[0], 0); err == nil {
		t.Fatal("TopK accepted k = 0")
	}
	if _, err := g.RegretRatioFor([]float64{-1, 0, 0, 0}); err == nil {
		t.Fatal("RegretRatioFor accepted a negative utility component")
	}
}

// A held generation is repeatable: every read through it must be unaffected
// by later writes, while Current advances.
func TestGenerationPinnedAcrossWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := 3
	store, err := rms.NewStore(d, randomTuples(rng, 100, d, 0), rms.Options{K: 1, R: 5, Epsilon: 0.03, MaxUtilities: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := store.Current()
	if g.ID() != 1 {
		t.Fatalf("initial generation id = %d, want 1", g.ID())
	}
	u := probeUtilities(d)[d]
	beforeRes := append([]rms.Point(nil), g.Result()...)
	beforeTop, _ := g.TopK(u, 7)
	beforeReg, _ := g.RegretRatioFor(u)
	beforeLen, beforeEpoch := g.Len(), g.Epoch()

	var batch []rms.Update
	for _, p := range randomTuples(rng, 200, d, 500) {
		batch = append(batch, rms.Ins(p))
	}
	for id := 0; id < 60; id++ {
		batch = append(batch, rms.Del(id))
	}
	if err := store.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}

	if cur := store.Current(); cur.ID() != 2 || cur.Epoch() <= beforeEpoch {
		t.Fatalf("current generation id/epoch = %d/%d after a write", cur.ID(), cur.Epoch())
	}
	if !reflect.DeepEqual(g.Result(), beforeRes) || g.Len() != beforeLen || g.Epoch() != beforeEpoch {
		t.Fatal("held generation changed under a write")
	}
	afterTop, _ := g.TopK(u, 7)
	afterReg, _ := g.RegretRatioFor(u)
	if !reflect.DeepEqual(afterTop, beforeTop) || afterReg != beforeReg {
		t.Fatal("held generation's queries changed under a write")
	}
	if g.Contains(10) != true || store.Current().Contains(10) != false {
		t.Fatal("membership not pinned: id 10 was deleted after the capture")
	}
}

// genExpect is the sequential twin's record of what one generation must look
// like, stored BEFORE the store publishes that generation.
type genExpect struct {
	result []rms.Point
	n      int
	topk   [][]rms.Scored
	regret []float64
}

// The race-mode stress suite: N reader goroutines hammer every read entry
// point while a writer streams batches. Every observed generation must be
// bit-equal to the sequential twin at that generation, ids must be
// monotonic per reader, and no read may ever see a torn or mid-batch state.
// Both stores run four shards; run with -race (CI's serving-smoke job does,
// at GOMAXPROCS=4) to exercise the lock-free read paths against the
// shard-parallel write path.
func TestStoreMVCCReadersVsWriterStress(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := 3
	const (
		k        = 2
		nReaders = 4
		nBatches = 25
	)
	initial := randomTuples(rng, 300, d, 0)
	opts := rms.Options{K: k, R: 6, Epsilon: 0.03, MaxUtilities: 64, Seed: 5, Shards: 4}
	store, err := rms.NewStore(d, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	twin, err := rms.NewStore(d, initial, opts) // used single-threaded
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	probes := probeUtilities(d)

	// expect[g] is published before store generation g exists, so a reader
	// that observes generation g always finds its expectation.
	var expect sync.Map
	record := func(id uint64, g *rms.Generation) {
		e := &genExpect{result: g.Result(), n: g.Len()}
		for _, u := range probes {
			top, err := g.TopK(u, k+2)
			if err != nil {
				t.Errorf("twin TopK: %v", err)
			}
			reg, err := g.RegretRatioFor(u)
			if err != nil {
				t.Errorf("twin regret: %v", err)
			}
			e.topk = append(e.topk, top)
			e.regret = append(e.regret, reg)
		}
		expect.Store(id, e)
	}
	record(1, twin.Current())

	var failed atomic.Bool
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastID := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				g := store.Current()
				if g.ID() < lastID {
					t.Errorf("reader %d: generation id went backwards: %d after %d", r, g.ID(), lastID)
					failed.Store(true)
					return
				}
				lastID = g.ID()
				v, ok := expect.Load(g.ID())
				if !ok {
					t.Errorf("reader %d: observed generation %d before its twin record", r, g.ID())
					failed.Store(true)
					return
				}
				e := v.(*genExpect)
				if g.Len() != e.n {
					t.Errorf("reader %d: gen %d: Len = %d, twin %d", r, g.ID(), g.Len(), e.n)
					failed.Store(true)
					return
				}
				if !reflect.DeepEqual(g.Result(), e.result) {
					t.Errorf("reader %d: gen %d: torn result %v, twin %v", r, g.ID(), g.Result(), e.result)
					failed.Store(true)
					return
				}
				ui := i % len(probes)
				top, err := g.TopK(probes[ui], k+2)
				if err != nil {
					t.Errorf("reader %d: TopK: %v", r, err)
					failed.Store(true)
					return
				}
				if !reflect.DeepEqual(top, e.topk[ui]) {
					t.Errorf("reader %d: gen %d: TopK diverges from twin", r, g.ID())
					failed.Store(true)
					return
				}
				reg, err := g.RegretRatioFor(probes[ui])
				if err != nil || reg != e.regret[ui] {
					t.Errorf("reader %d: gen %d: regret %v (err %v), twin %v", r, g.ID(), reg, err, e.regret[ui])
					failed.Store(true)
					return
				}
				// Point reads through Current too.
				store.Current().Len()
				store.Current().Contains(i % 400)
				store.Current().Stats()
			}
		}(r)
	}

	for b := 0; b < nBatches && !failed.Load(); b++ {
		var batch []rms.Update
		for _, p := range randomTuples(rng, 16, d, 2000+100*b) {
			batch = append(batch, rms.Ins(p))
		}
		for j := 0; j < 4; j++ {
			batch = append(batch, rms.Del(rng.Intn(300)))
		}
		// Twin first: its generation b+2 expectation must exist before the
		// store can publish generation b+2.
		if err := twin.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		record(twin.Current().ID(), twin.Current())
		if err := store.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if store.Current().ID() != twin.Current().ID() {
			t.Fatalf("store generation %d != twin %d", store.Current().ID(), twin.Current().ID())
		}
	}
	close(done)
	wg.Wait()
}

// Generation retirement: superseded generations (and the index views they
// pin) must be reclaimed once the last reader drops them — the writer must
// not keep old versions alive, and churn with outstanding handles must not
// pin defensive rebuilds forever.
func TestGenerationRetirementReleasesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := 3
	store, err := rms.NewStore(d, randomTuples(rng, 200, d, 0), rms.Options{K: 1, R: 5, Epsilon: 0.03, MaxUtilities: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const rounds = 20
	var finalized atomic.Int32
	for b := 0; b < rounds; b++ {
		g := store.Current()
		runtime.SetFinalizer(g, func(*rms.Generation) { finalized.Add(1) })
		var batch []rms.Update
		for _, p := range randomTuples(rng, 8, d, 1000+20*b) {
			batch = append(batch, rms.Ins(p))
		}
		batch = append(batch, rms.Del(b), rms.Del(b+100))
		if err := store.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		g = nil // drop the handle: the generation is now unreachable
	}

	// All rounds' handles were dropped and superseded; only the current
	// generation (no finalizer) is still referenced by the store. Finalizers
	// need the collector to notice, so nudge it a few times.
	deadline := time.Now().Add(5 * time.Second)
	for finalized.Load() < rounds && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got < rounds {
		t.Fatalf("only %d of %d retired generations were reclaimed — something pins old versions", got, rounds)
	}
}
