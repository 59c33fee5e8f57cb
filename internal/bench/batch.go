package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"fdrms/internal/core"
	"fdrms/internal/dataset"
	"fdrms/internal/geom"
	"fdrms/internal/obs"
	"fdrms/internal/setcover"
	"fdrms/internal/topk"
)

// DefaultBatchSizes is the batch-size grid of the throughput experiments.
var DefaultBatchSizes = []int{1, 16, 256}

// latSummary is the per-op latency distribution of one run: each timed call
// (one operation at batch size 1, one ApplyBatch call otherwise, amortized
// over the operations THAT call covered) contributes one sample.
type latSummary struct {
	p50, p99, max time.Duration
}

// summarize computes the percentiles over already-per-op latency samples
// through an obs.Histogram rather than a sort: O(n) instead of O(n log n),
// and the same distribution machinery the serving stack exports. The
// trade is resolution, with a one-sided bound: the histogram's log₂-scale
// buckets split each octave into 16 sub-buckets and a quantile reports its
// bucket's inclusive upper edge, so p50/p99 are never below the true
// percentile and at most 1/16 (6.25%) above it. The maximum is tracked
// exactly, not bucketed.
func summarize(samples []time.Duration) latSummary {
	if len(samples) == 0 {
		return latSummary{}
	}
	h := obs.NewHistogram()
	for _, d := range samples {
		h.Observe(int64(d))
	}
	return latSummary{
		p50: time.Duration(h.Quantile(0.50)),
		p99: time.Duration(h.Quantile(0.99)),
		max: time.Duration(h.Max()),
	}
}

// latResolutionNote documents summarize's error bound on every table that
// prints its percentiles.
const latResolutionNote = "p50/p99 are histogram upper edges (≤6.25% above the true percentile, never below); max is exact"

// benchStart anchors the phase clock injected into instrumented runs.
var benchStart = time.Now()

// benchClock is the monotonic phase clock handed to core.Instrument when a
// metrics registry is attached (the engine cannot read time itself — the
// determinism contract bans it inside the maintenance path).
func benchClock() int64 { return int64(time.Since(benchStart)) }

func fmtMicros(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

// runStreams times each named operation stream over a fresh FD-RMS instance
// per (stream, batch size) cell. Batch size 1 is the sequential path (one
// Insert/Delete per operation) and the baseline of the speedup column;
// larger sizes go through ApplyBatch. Every run's final cover is compared
// against the sequential one, so the table doubles as an end-to-end
// equivalence check at bench scale. Alongside throughput, every timed call
// feeds the per-op latency percentiles (p50/p99/max), which is where
// tail-latency work — such as the persistent worker pool — shows up when
// the mean moves little.
func runStreams(t *Table, o Options, initial []geom.Point, cfg core.Config,
	order []string, streams map[string][]topk.Op, sizes []int) {
	var samples []time.Duration
	for _, name := range order {
		ops := streams[name]
		run := func(size int) (time.Duration, float64, latSummary, []int) {
			f, err := core.New(o.SynthD, initial, cfg)
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if o.Metrics != nil {
				// Successive cells get the SAME registry handles (get-or-create
				// by name), so the registry accumulates across the experiment.
				f.Instrument(topk.NewMetrics(o.Metrics), setcover.NewMetrics(o.Metrics), benchClock)
			}
			samples = samples[:0]
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			// elapsed sums the per-call windows rather than bracketing the
			// whole loop, so the sampling clock reads between calls are
			// excluded SYMMETRICALLY at every batch size — otherwise the
			// sequential baseline would absorb two clock reads per op while
			// batch=256 pays them once per 256 ops, skewing the speedup
			// column by the difference.
			var elapsed time.Duration
			if size <= 1 {
				for _, op := range ops {
					opStart := time.Now()
					if op.Delete {
						f.Delete(op.ID)
					} else {
						f.Insert(op.Point)
					}
					d := time.Since(opStart)
					elapsed += d
					samples = append(samples, d)
				}
			} else {
				for i := 0; i < len(ops); i += size {
					j := i + size
					if j > len(ops) {
						j = len(ops)
					}
					opStart := time.Now()
					f.ApplyBatch(ops[i:j])
					d := time.Since(opStart)
					elapsed += d
					// Amortize over the ops THIS call covered — the final
					// call of a stream can be a partial batch.
					samples = append(samples, d/time.Duration(j-i))
				}
			}
			runtime.ReadMemStats(&ms)
			allocsPerOp := float64(ms.Mallocs-mallocs) / float64(len(ops))
			return elapsed, allocsPerOp, summarize(samples), f.ResultIDs()
		}
		// The reference is always the sequential path, regardless of which
		// batch sizes were requested: both the speedup column and the
		// result==seq equivalence column compare against it.
		seqElapsed, seqAllocs, seqLat, seqResult := run(1)
		baseline := float64(len(ops)) / seqElapsed.Seconds()
		for _, size := range sizes {
			elapsed, allocs, lat, result := seqElapsed, seqAllocs, seqLat, seqResult
			if size > 1 {
				elapsed, allocs, lat, result = run(size)
			}
			opsPerSec := float64(len(ops)) / elapsed.Seconds()
			t.AddRow(name, fmt.Sprint(len(ops)), fmt.Sprintf("%d", size), fmtDur(elapsed),
				fmt.Sprintf("%.0f", opsPerSec),
				fmt.Sprintf("%.2fx", opsPerSec/baseline),
				fmt.Sprintf("%.1f", allocs),
				fmtMicros(lat.p50),
				fmtMicros(lat.p99),
				fmtMicros(lat.max),
				fmt.Sprintf("%v", reflect.DeepEqual(result, seqResult)))
		}
	}
}

// batchSetup materializes the shared workload of the throughput tables: an
// anti-correlated initial database plus a pool of fresh points for the
// streams to insert.
func batchSetup(o Options) (initial, fresh []geom.Point, cfg core.Config) {
	n := scaled(o.SynthN, o.Scale)
	streamLen := n / 10
	if streamLen < 512 {
		streamLen = 512
	}
	ds := dataset.AntiCor(n+streamLen, o.SynthD, o.Seed)
	initial = ds.Points[:n]
	fresh = ds.Points[n:]
	cfg = core.Config{K: 1, R: capR(defaultR("AntiCor"), n), Eps: 0.01, M: o.M, Seed: o.Seed}
	return initial, fresh, cfg
}

// BatchThroughput measures FD-RMS update throughput on the anti-correlated
// synthetic workload at increasing batch sizes: a pure insertion stream
// (the paper's append-heavy regime) and a mixed stream with 20% deletions.
func BatchThroughput(o Options, sizes ...int) *Table {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = DefaultBatchSizes
	}
	initial, fresh, cfg := batchSetup(o)
	streams := map[string][]topk.Op{
		"insert": insertStream(fresh),
		"mixed":  mixedStream(initial, fresh),
	}
	t := &Table{
		Title:  fmt.Sprintf("Batched update throughput (AntiCor, n=%d, d=%d, M=%d, r=%d)", len(initial), o.SynthD, o.M, cfg.R),
		Header: []string{"workload", "ops", "batch", "elapsed", "ops/s", "speedup", "allocs/op", "p50(µs)", "p99(µs)", "max(µs)", "result==seq"},
	}
	runStreams(t, o, initial, cfg, []string{"insert", "mixed"}, streams, sizes)
	t.Notes = append(t.Notes,
		"batch=1 is the sequential Insert/Delete path; larger batches use ApplyBatch",
		"the shard-parallel fan-out needs multiple CPUs to show its full speedup",
		"p50/p99/max are per-op latencies; at batch>1 each ApplyBatch call is one sample amortized over its ops",
		latResolutionNote)
	return t
}

// SlidingWindow measures the delete-heavy regimes that delete-run batching
// targets: a sliding window (every insertion evicts the oldest tuple, 50%
// deletions), bursts (blocks of 16 insertions then 16 evictions, so
// ApplyBatch segments long runs of both kinds), and a pure deletion stream
// (draining half the database in one long delete run).
func SlidingWindow(o Options, sizes ...int) *Table {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = DefaultBatchSizes
	}
	initial, fresh, cfg := batchSetup(o)
	streams := map[string][]topk.Op{
		"sliding": slidingStream(initial, fresh),
		"bursty":  burstyStream(initial, fresh, 16),
		"delete":  deleteStream(initial),
	}
	t := &Table{
		Title:  fmt.Sprintf("Sliding-window / delete-heavy throughput (AntiCor, n=%d, d=%d, M=%d, r=%d)", len(initial), o.SynthD, o.M, cfg.R),
		Header: []string{"workload", "ops", "batch", "elapsed", "ops/s", "speedup", "allocs/op", "p50(µs)", "p99(µs)", "max(µs)", "result==seq"},
	}
	runStreams(t, o, initial, cfg, []string{"sliding", "bursty", "delete"}, streams, sizes)
	t.Notes = append(t.Notes,
		"sliding: insert+evict pairs (50% deletes); bursty: alternating 16-op insert/delete runs; delete: one long drain",
		"batch=1 is the sequential Insert/Delete path; larger batches use ApplyBatch",
		"the shard-parallel fan-out needs multiple CPUs to show its full speedup",
		"p50/p99/max are per-op latencies; at batch>1 each ApplyBatch call is one sample amortized over its ops",
		latResolutionNote)
	return t
}

// insertStream turns fresh points into a pure insertion stream.
func insertStream(fresh []geom.Point) []topk.Op {
	ops := make([]topk.Op, len(fresh))
	for i, p := range fresh {
		ops[i] = topk.InsertOp(p)
	}
	return ops
}

// mixedStream interleaves one deletion of an initial tuple after every four
// insertions (20% deletes), deterministic in the stream position.
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

// slidingStream keeps the window size constant: every insertion of a fresh
// tuple is followed by the eviction of the oldest live one (50% deletes).
func slidingStream(initial, fresh []geom.Point) []topk.Op {
	ops := make([]topk.Op, 0, 2*len(fresh))
	del := 0
	for _, p := range fresh {
		ops = append(ops, topk.InsertOp(p))
		if del < len(initial) {
			ops = append(ops, topk.DeleteOp(initial[del].ID))
			del++
		}
	}
	return ops
}

// burstyStream alternates blocks of blockLen insertions with blocks of
// blockLen evictions of the oldest live tuples, producing long runs of both
// kinds for the run-segmented batch path.
func burstyStream(initial, fresh []geom.Point, blockLen int) []topk.Op {
	ops := make([]topk.Op, 0, 2*len(fresh))
	del := 0
	for i := 0; i < len(fresh); i += blockLen {
		j := i + blockLen
		if j > len(fresh) {
			j = len(fresh)
		}
		for _, p := range fresh[i:j] {
			ops = append(ops, topk.InsertOp(p))
		}
		for b := 0; b < j-i && del < len(initial); b++ {
			ops = append(ops, topk.DeleteOp(initial[del].ID))
			del++
		}
	}
	return ops
}

// deleteStream drains half of the initial database in one long delete run.
func deleteStream(initial []geom.Point) []topk.Op {
	ops := make([]topk.Op, len(initial)/2)
	for i := range ops {
		ops[i] = topk.DeleteOp(initial[i].ID)
	}
	return ops
}
