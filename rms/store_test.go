package rms_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fdrms/rms"
)

func randomTuples(rng *rand.Rand, n, d, idBase int) []rms.Point {
	out := make([]rms.Point, n)
	for i := range out {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = rms.Point{ID: idBase + i, Values: v}
	}
	return out
}

// ApplyBatch must produce exactly the answer of the one-by-one path.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 3
	initial := randomTuples(rng, 100, d, 0)
	opts := rms.Options{K: 1, R: 6, Epsilon: 0.02, MaxUtilities: 128, Seed: 9, Shards: 4}

	batched, err := rms.NewDynamic(d, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := rms.NewDynamic(d, initial, opts)
	if err != nil {
		t.Fatal(err)
	}

	var batch []rms.Update
	for _, p := range randomTuples(rng, 200, d, 1000) {
		batch = append(batch, rms.Ins(p))
	}
	for id := 0; id < 40; id++ {
		batch = append(batch, rms.Del(id))
	}
	if err := batched.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, u := range batch {
		if u.Delete {
			sequential.Delete(u.ID)
		} else {
			if err := sequential.Insert(u.Point); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := batched.Result(), sequential.Result(); !reflect.DeepEqual(a, b) {
		t.Fatalf("results diverge:\n%v\n%v", a, b)
	}
}

// A batch with an invalid tuple is rejected before any update is applied.
func TestApplyBatchValidatesUpFront(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, err := rms.NewDynamic(2, randomTuples(rng, 30, 2, 0), rms.Options{K: 1, R: 4, Epsilon: 0.05, MaxUtilities: 32})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Result()
	batch := []rms.Update{
		rms.Ins(rms.Point{ID: 500, Values: []float64{0.5, 0.5}}),
		rms.Ins(rms.Point{ID: 501, Values: []float64{0.5, 0.5, 0.5}}), // wrong dimension
	}
	if err := d.ApplyBatch(batch); err == nil {
		t.Fatal("expected dimension error")
	}
	if d.Contains(500) {
		t.Fatal("batch was partially applied before validation failed")
	}
	if !reflect.DeepEqual(before, d.Result()) {
		t.Fatal("result changed after rejected batch")
	}
}

// Store must serve consistent reads while a writer streams batches, and the
// final answer must match an unwrapped instance fed the same updates. Run
// with -race to exercise the locking against the shard-parallel write path.
func TestStoreConcurrentReadersAndWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 3
	initial := randomTuples(rng, 80, d, 0)
	opts := rms.Options{K: 1, R: 5, Epsilon: 0.03, MaxUtilities: 64, Seed: 2, Shards: 4}
	store, err := rms.NewStore(d, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := rms.NewDynamic(d, initial, opts)
	if err != nil {
		t.Fatal(err)
	}

	var batches [][]rms.Update
	for b := 0; b < 20; b++ {
		var batch []rms.Update
		for _, p := range randomTuples(rng, 15, d, 1000+100*b) {
			batch = append(batch, rms.Ins(p))
		}
		batch = append(batch, rms.Del(rng.Intn(80)))
		batches = append(batches, batch)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res := store.Current().Result()
				if len(res) > 5 {
					t.Errorf("reader %d: |Q| = %d exceeds r", r, len(res))
					return
				}
				store.Current().Len()
				store.Current().Contains(r)
				store.Current().Stats()
			}
		}(r)
	}
	for _, batch := range batches {
		if err := store.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := plain.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	if a, b := store.Current().Result(), plain.Result(); !reflect.DeepEqual(a, b) {
		t.Fatalf("store result %v diverges from plain %v", a, b)
	}
}

// Results handed out by Store are cached immutable snapshots: reads between
// writes share one copy, a write invalidates it, and snapshots taken before
// a write keep their contents while fresh reads see the new answer.
func TestStoreResultSnapshotCache(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	store, err := rms.NewStore(2, randomTuples(rng, 50, 2, 0), rms.Options{K: 1, R: 4, Epsilon: 0.05, MaxUtilities: 32})
	if err != nil {
		t.Fatal(err)
	}
	res := store.Current().Result()
	if len(res) == 0 {
		t.Fatal("empty result")
	}
	// Reads between writes return the same cached snapshot, not a fresh copy.
	if again := store.Current().Result(); &again[0] != &res[0] {
		t.Fatal("consecutive reads did not share the cached snapshot")
	}

	// A write invalidates the cache, and the old snapshot stays frozen.
	before := make([]rms.Point, len(res))
	for i, p := range res {
		before[i] = rms.Point{ID: p.ID, Values: append([]float64(nil), p.Values...)}
	}
	if err := store.Insert(rms.Point{ID: 999, Values: []float64{0.99, 0.99}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, before) {
		t.Fatal("snapshot taken before the write changed")
	}
	after := store.Current().Result()
	if len(after) > 0 && &after[0] == &res[0] {
		t.Fatal("cache not invalidated by a write")
	}

	// Mutating a handed-out snapshot must not corrupt the maintained answer:
	// the next write rebuilds the result from engine state, not the cache.
	for i := range after[0].Values {
		after[0].Values[i] = -1
	}
	store.Delete(999)
	for _, p := range store.Current().Result() {
		for _, v := range p.Values {
			if v < 0 {
				t.Fatal("snapshot mutation leaked into a rebuilt result")
			}
		}
	}
}
