package rms_test

import (
	"runtime"
	"slices"
	"testing"

	"fdrms/internal/dataset"
	"fdrms/rms"
)

// slidingCommits returns a store over n AntiCor tuples and a commit that
// inserts batch fresh AntiCor tuples and deletes the batch oldest live
// ones — the trickle (batch 1) and bulk (batch 128) workloads' write —
// through Store.ApplyBatch, so each call pays apply and publish.
func slidingCommits(tb testing.TB, n, d, batch int, opts rms.Options) (*rms.Store, func()) {
	tb.Helper()
	const spare = 4096 // insert values cycle through these, under fresh ids
	ds := dataset.AntiCor(n+spare, d, 1)
	pts := make([]rms.Point, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = rms.Point{ID: p.ID, Values: p.Coords}
	}
	store, err := rms.NewStore(d, pts[:n], opts)
	if err != nil {
		tb.Fatal(err)
	}
	next, oldest := n, 0
	ups := make([]rms.Update, 0, 2*batch)
	return store, func() {
		ups = ups[:0]
		for i := 0; i < batch; i++ {
			ups = append(ups, rms.Ins(rms.Point{ID: next, Values: pts[n+(next-n)%spare].Values}))
			next++
		}
		for i := 0; i < batch; i++ {
			ups = append(ups, rms.Del(oldest))
			oldest++
		}
		if err := store.ApplyBatch(ups); err != nil {
			tb.Fatal(err)
		}
	}
}

// The bytes a commit allocates follow the tuple-index pages it touches,
// not the database size: at a database 16× larger the median commit
// allocates at most 4× as much. A publish that copied the whole index (or
// any O(n) membership list) would allocate about 16× as much.
func TestPublishAllocsFlatInN(t *testing.T) {
	const d, small = 4, 2000
	opts := rms.Options{K: 1, R: 10, Epsilon: 0.01, MaxUtilities: 128, Seed: 1}
	median := func(n int) uint64 {
		store, commit := slidingCommits(t, n, d, 1, opts)
		defer store.Close()
		for i := 0; i < 8; i++ {
			commit() // past the first growth of the point arrays
		}
		var m0, m1 runtime.MemStats
		bytes := make([]uint64, 41)
		for i := range bytes {
			runtime.ReadMemStats(&m0)
			commit()
			runtime.ReadMemStats(&m1)
			bytes[i] = m1.TotalAlloc - m0.TotalAlloc
		}
		slices.Sort(bytes)
		return bytes[len(bytes)/2]
	}
	lo, hi := median(small), median(16*small)
	t.Logf("median bytes per commit: %d at n=%d, %d at n=%d", lo, small, hi, 16*small)
	if hi > 4*lo {
		t.Fatalf("a commit allocates %d B at n=%d but %d B at n=%d: more than 4× for 16× the tuples", hi, 16*small, lo, small)
	}
}

// serverOptions is the serving benchmark's configuration: r = 50,
// M = 2048, ε = 0.01 (with AntiCor, n = 100k, d = 6).
var serverOptions = rms.Options{K: 1, R: 50, Epsilon: 0.01, MaxUtilities: 2048, Seed: 1}

// BenchmarkPublish times one sliding commit (1 insert + 1 delete, apply and
// publish) at the serving benchmark's configuration. CI gates on its B/op.
func BenchmarkPublish(b *testing.B) { benchmarkSliding(b, 1) }

// BenchmarkBulkCommit times one bulk commit (128 inserts + 128 sliding
// deletes, apply and publish) at the serving benchmark's configuration.
func BenchmarkBulkCommit(b *testing.B) { benchmarkSliding(b, 128) }

func benchmarkSliding(b *testing.B, batch int) {
	store, commit := slidingCommits(b, 100000, 6, batch, serverOptions)
	defer store.Close()
	for i := 0; i < 8; i++ {
		commit() // past the first growth of the point arrays
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit()
	}
}
