package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fdrms/internal/dataset"
	"fdrms/internal/geom"
	"fdrms/internal/topk"
)

// randomCoreOps mirrors the update mix of the engine tests at the FD-RMS
// level: fresh inserts, deletes of live ids, replacing inserts, and
// deletes of missing ids.
func randomCoreOps(rng *rand.Rand, initial []geom.Point, n, d, idBase int) []topk.Op {
	live := make([]int, 0, len(initial)+n)
	for _, p := range initial {
		live = append(live, p.ID)
	}
	next := idBase
	randPoint := func(id int) geom.Point {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		return geom.Point{ID: id, Coords: v}
	}
	ops := make([]topk.Op, 0, n)
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 5:
			ops = append(ops, topk.InsertOp(randPoint(next)))
			live = append(live, next)
			next++
		case r < 7 && len(live) > 0:
			i := rng.Intn(len(live))
			ops = append(ops, topk.DeleteOp(live[i]))
			live = append(live[:i], live[i+1:]...)
		case r < 9 && len(live) > 0:
			ops = append(ops, topk.InsertOp(randPoint(live[rng.Intn(len(live))])))
		default:
			ops = append(ops, topk.DeleteOp(next+100000))
		}
	}
	return ops
}

// equivShards are the shard counts the batched side of the equivalence
// tests runs at. The sequential reference always runs one shard: shard
// count and parallelism are performance knobs, never semantics.
var equivShards = []int{1, 2, 4, 16}

// seqTrace is a sequential reference run: the result ids after every
// prefix of the op stream, and the final counters and size.
type seqTrace struct {
	ids   [][]int // ids[j] is ResultIDs after ops[:j]
	stats Stats
	n     int
}

// sequentialTrace replays ops one Insert/Delete at a time on a one-shard
// instance, recording the answer after every operation.
func sequentialTrace(t *testing.T, d int, pts []geom.Point, cfg Config, ops []topk.Op) seqTrace {
	t.Helper()
	cfg.Shards = 1
	f := mustNew(t, d, pts, cfg)
	defer f.Close()
	tr := seqTrace{ids: make([][]int, 0, len(ops)+1)}
	tr.ids = append(tr.ids, f.ResultIDs())
	for _, op := range ops {
		if op.Delete {
			f.Delete(op.ID)
		} else {
			f.Insert(op.Point)
		}
		tr.ids = append(tr.ids, f.ResultIDs())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.stats, tr.n = f.Stats(), f.Len()
	return tr
}

// checkBatched applies ops through ApplyBatch in batches of batchSize on an
// instance with the given shard count, and requires the reference's result
// ids at every batch boundary, valid invariants after every batch, and the
// reference's final counters and size. It returns how many runs fanned out
// through the shard worker pool.
func checkBatched(t *testing.T, name string, d int, pts []geom.Point, cfg Config, ops []topk.Op, ref seqTrace, shards, batchSize int) int {
	t.Helper()
	cfg.Shards = shards
	f := mustNew(t, d, pts, cfg)
	defer f.Close()
	cell := fmt.Sprintf("%s shards=%d batch=%d", name, shards, batchSize)
	if a, b := f.ResultIDs(), ref.ids[0]; !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: initial covers differ: %v vs %v", cell, a, b)
	}
	for i := 0; i < len(ops); i += batchSize {
		j := min(i+batchSize, len(ops))
		f.ApplyBatch(ops[i:j])
		if a, b := f.ResultIDs(), ref.ids[j]; !reflect.DeepEqual(a, b) {
			t.Fatalf("%s after op %d: covers differ: %v vs %v", cell, j, a, b)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("%s after op %d: %v", cell, j, err)
		}
	}
	if a, b := f.Stats(), ref.stats; a != b {
		t.Fatalf("%s: stats diverge: %+v vs %+v", cell, a, b)
	}
	if a, b := f.Len(), ref.n; a != b {
		t.Fatalf("%s: sizes diverge: %d vs %d", cell, a, b)
	}
	eng, _ := f.Counters()
	return eng.ParallelRuns
}

// antiCorWorkload is the anti-correlated workload of the stream inputs:
// n initial tuples and max(n/10, 512) fresh ones for the streams to insert,
// d = 6, and the AntiCor result size r = 50 capped at n/25.
func antiCorWorkload(n, m int) (initial, fresh []geom.Point, cfg Config) {
	ds := dataset.AntiCor(n+max(n/10, 512), 6, 1)
	cfg = Config{K: 1, R: min(50, n/25), Eps: 0.01, M: m, Seed: 1}
	return ds.Points[:n], ds.Points[n:], cfg
}

// insertStream turns fresh points into a pure insertion stream.
func insertStream(fresh []geom.Point) []topk.Op {
	ops := make([]topk.Op, len(fresh))
	for i, p := range fresh {
		ops[i] = topk.InsertOp(p)
	}
	return ops
}

// mixedStream deletes the oldest initial tuple after every four insertions
// (20% deletes).
func mixedStream(initial, fresh []geom.Point) []topk.Op {
	ops := make([]topk.Op, 0, len(fresh)+len(fresh)/4)
	del := 0
	for i, p := range fresh {
		ops = append(ops, topk.InsertOp(p))
		if (i+1)%4 == 0 && del < len(initial) {
			ops = append(ops, topk.DeleteOp(initial[del].ID))
			del++
		}
	}
	return ops
}

// burstyStream alternates blocks of blockLen insertions with blocks of
// blockLen deletions of the oldest live tuples; blockLen 1 is a sliding
// window that evicts one tuple per insertion.
func burstyStream(initial, fresh []geom.Point, blockLen int) []topk.Op {
	ops := make([]topk.Op, 0, 2*len(fresh))
	del := 0
	for i := 0; i < len(fresh); i += blockLen {
		j := min(i+blockLen, len(fresh))
		for _, p := range fresh[i:j] {
			ops = append(ops, topk.InsertOp(p))
		}
		for ; del < len(initial) && del < j; del++ {
			ops = append(ops, topk.DeleteOp(initial[del].ID))
		}
	}
	return ops
}

// drainStream deletes the first half of the initial database in one long
// delete run.
func drainStream(initial []geom.Point) []topk.Op {
	ops := make([]topk.Op, len(initial)/2)
	for i := range ops {
		ops[i] = topk.DeleteOp(initial[i].ID)
	}
	return ops
}

// The batched pipeline must land on the same cover as the sequential one at
// every batch boundary — not just the same regret quality, the identical
// result ids and identical stabilization counters — at every shard count,
// with the shard-parallel engine path active. This is the end-to-end
// equivalence the rest of the system (and the bench comparisons) rely on.
// The AntiCor streams add long insert runs that go through the shard worker
// pool (asserted, so the check cannot pass without running the parallel
// path) and mixed runs short enough to stay inline.
func TestApplyBatchEquivalentToSequential(t *testing.T) {
	sizes := []int{1, 7, 64, 256}
	for _, batchSize := range sizes {
		rng := rand.New(rand.NewSource(int64(29 + batchSize)))
		d := 4
		pts := make([]geom.Point, 120)
		for i := range pts {
			v := make(geom.Vector, d)
			for j := range v {
				v[j] = rng.Float64()
			}
			pts[i] = geom.Point{ID: i, Coords: v}
		}
		cfg := Config{K: 2, R: 8, Eps: 0.02, M: 128, Seed: 5}
		ops := randomCoreOps(rng, pts, 500, d, 1000)
		ref := sequentialTrace(t, d, pts, cfg, ops)
		for _, shards := range equivShards {
			checkBatched(t, "random", d, pts, cfg, ops, ref, shards, batchSize)
		}
	}

	// AntiCor at n = 1,000, M = 256. Batch 1 through ApplyBatch already runs
	// at every shard count on the random inputs above, so these cells start
	// at the first batched size.
	initial, fresh, cfg := antiCorWorkload(1000, 256)
	for _, s := range []struct {
		name   string
		ops    []topk.Op
		pooled bool // runs at shards > 1 and batch >= 64 must use the pool
	}{
		{"AntiCor insert", insertStream(fresh), true},
		{"AntiCor mixed", mixedStream(initial, fresh), false},
	} {
		ref := sequentialTrace(t, 6, initial, cfg, s.ops)
		for _, shards := range equivShards {
			for _, batchSize := range sizes[1:] {
				par := checkBatched(t, s.name, 6, initial, cfg, s.ops, ref, shards, batchSize)
				if s.pooled && shards > 1 && batchSize >= 64 && par == 0 {
					t.Fatalf("%s shards=%d batch=%d: no run went through the worker pool", s.name, shards, batchSize)
				}
			}
		}
	}
}

// The delete-run path must keep the cover bit-identical too: alternating
// blocks of insertions and deletions (sliding-window style) so ApplyBatch
// segments long runs of each kind at every batch size and shard count. The
// AntiCor streams add a one-for-one sliding window, 16-op bursts, and a
// drain of half the database in one delete run.
func TestApplyBatchDeleteRunsEquivalent(t *testing.T) {
	sizes := []int{1, 16, 128, 512}
	for _, batchSize := range sizes {
		rng := rand.New(rand.NewSource(int64(53 + batchSize)))
		d := 4
		pts := make([]geom.Point, 150)
		for i := range pts {
			v := make(geom.Vector, d)
			for j := range v {
				v[j] = rng.Float64()
			}
			pts[i] = geom.Point{ID: i, Coords: v}
		}
		cfg := Config{K: 2, R: 8, Eps: 0.02, M: 128, Seed: 5}

		// Blocks of 30 inserts alternating with blocks of 30 deletes of the
		// oldest live ids.
		live := make([]int, len(pts))
		for i := range live {
			live[i] = i
		}
		next := 1000
		var ops []topk.Op
		for b := 0; b < 10; b++ {
			if b%2 == 0 {
				for i := 0; i < 30; i++ {
					v := make(geom.Vector, d)
					for j := range v {
						v[j] = rng.Float64()
					}
					ops = append(ops, topk.InsertOp(geom.Point{ID: next, Coords: v}))
					live = append(live, next)
					next++
				}
			} else {
				for i := 0; i < 30 && len(live) > 0; i++ {
					ops = append(ops, topk.DeleteOp(live[0]))
					live = live[1:]
				}
			}
		}

		ref := sequentialTrace(t, d, pts, cfg, ops)
		for _, shards := range equivShards {
			checkBatched(t, "blocks", d, pts, cfg, ops, ref, shards, batchSize)
		}
	}

	// AntiCor at n = 1,000, M = 256, from the first batched size as above.
	initial, fresh, cfg := antiCorWorkload(1000, 256)
	for _, s := range []struct {
		name string
		ops  []topk.Op
	}{
		{"AntiCor sliding", burstyStream(initial, fresh, 1)},
		{"AntiCor bursty-16", burstyStream(initial, fresh, 16)},
		{"AntiCor drain-half", drainStream(initial)},
	} {
		ref := sequentialTrace(t, 6, initial, cfg, s.ops)
		for _, shards := range equivShards {
			for _, batchSize := range sizes[1:] {
				checkBatched(t, s.name, 6, initial, cfg, s.ops, ref, shards, batchSize)
			}
		}
	}
}

// Two identically-configured instances fed the same operations must agree
// exactly — the solver, the engine, and initialization are deterministic
// functions of the operation sequence.
func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := 3
	pts := make([]geom.Point, 90)
	for i := range pts {
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = geom.Point{ID: i, Coords: v}
	}
	ops := randomCoreOps(rng, pts, 300, d, 500)
	cfg := Config{K: 1, R: 6, Eps: 0.03, M: 96, Seed: 11}
	var prev []int
	for trial := 0; trial < 3; trial++ {
		f := mustNew(t, d, pts, cfg)
		f.ApplyBatch(ops)
		ids := f.ResultIDs()
		if trial > 0 && !reflect.DeepEqual(ids, prev) {
			t.Fatalf("trial %d result %v differs from previous %v", trial, ids, prev)
		}
		prev = ids
	}
}

// batchFloor is BenchmarkBatchFloor's gate on vs_b1: a configuration's best
// batched rate must not fall more than 10% below its batch-1 rate. Judging
// the best batched size, each rate the best of floorReps runs, absorbs the
// scheduler noise left in few-millisecond runs; a structurally broken batch
// path drags every size far below.
const batchFloor = 0.9

// floorReps is how many runs each rate of BenchmarkBatchFloor is the best of.
const floorReps = 3

// BenchmarkBatchFloor gates the batched update path against the sequential
// one. At GOMAXPROCS 1, 2 and 4 (skipped above NumCPU), with as many shards
// as procs and with four times as many, the insert and mixed AntiCor streams
// (n = 5,000, d = 6, M = 256) run at batch 1, 64 and 256. vs_b1 is the best
// batched rate over the batch-1 rate, and a value below batchFloor fails the
// benchmark. It is a benchmark rather than a test so that go test never
// gates on timing. GOMAXPROCS is set inside each sub-benchmark, not taken
// from -cpu.
func BenchmarkBatchFloor(b *testing.B) {
	initial, fresh, cfg := antiCorWorkload(5000, 256)
	streams := []struct {
		name string
		ops  []topk.Op
	}{
		{"insert", insertStream(fresh)},
		{"mixed", mixedStream(initial, fresh)},
	}
	for _, procs := range []int{1, 2, 4} {
		for _, shards := range []int{procs, 4 * procs} {
			for _, s := range streams {
				b.Run(fmt.Sprintf("%s/procs=%d/shards=%d", s.name, procs, shards), func(b *testing.B) {
					if procs > runtime.NumCPU() {
						b.Skipf("GOMAXPROCS %d exceeds NumCPU %d", procs, runtime.NumCPU())
					}
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					c := cfg
					c.Shards = shards
					var vs float64
					for i := 0; i < b.N; i++ {
						// Reps interleave the sizes, so a slow stretch of the
						// host hits every size alike instead of one.
						var best [3]float64 // batch 1, 64, 256
						for r := 0; r < floorReps; r++ {
							for k, size := range []int{1, 64, 256} {
								best[k] = max(best[k], streamRate(b, initial, c, s.ops, size))
							}
						}
						vs = max(best[1], best[2]) / best[0]
						if vs < batchFloor {
							b.Fatalf("best batched rate is %.2fx batch 1, below the %.2fx floor", vs, batchFloor)
						}
					}
					b.ReportMetric(vs, "vs_b1")
				})
			}
		}
	}
}

// streamRate returns the ops/s of one run of ops over a fresh instance in
// batches of size; batch 1 is the sequential Insert/Delete path. The run
// starts after a forced GC, so earlier garbage is not billed to it, and
// sums per-call windows, so the clock reads between calls are excluded
// alike at every batch size.
func streamRate(b *testing.B, initial []geom.Point, cfg Config, ops []topk.Op, size int) float64 {
	f, err := New(6, initial, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	runtime.GC()
	var elapsed time.Duration
	for i := 0; i < len(ops); i += size {
		j := min(i+size, len(ops))
		start := time.Now()
		if size == 1 {
			if op := ops[i]; op.Delete {
				f.Delete(op.ID)
			} else {
				f.Insert(op.Point)
			}
		} else {
			f.ApplyBatch(ops[i:j])
		}
		elapsed += time.Since(start)
	}
	return float64(len(ops)) / elapsed.Seconds()
}
