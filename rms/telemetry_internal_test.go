package rms

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fdrms/internal/obs"
	"fdrms/internal/setcover"
	"fdrms/internal/topk"
)

// storeCounters reads the engine's and the solver's counters in writer
// context.
func storeCounters(s *Store) (e topk.Counters, c setcover.Counters) {
	s.withWriteLock(func() { e, c = s.d.f.Counters() })
	return e, c
}

// Every engine and solver series on /metrics is the engine's or the
// solver's own change since the attach (the slab gauges: its level), and
// the trace ring's per-commit records add up to the same families. The
// stream mixes inserts, deletes and replaces on a multi-shard store, so
// some runs go through the worker pool.
func TestTelemetryPublishesCommitDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const d = 3
	store, err := NewStore(d, randomPoints(rng, 400, d, 0), Options{K: 1, R: 8, Epsilon: 0.001, MaxUtilities: 256, Seed: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Traffic before the attach is not the families' to count.
	if err := store.ApplyBatch([]Update{Ins(Point{ID: 900, Values: []float64{0.9, 0.9, 0.9}}), Del(0)}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	store.SetTelemetry(tel)
	e0, c0 := storeCounters(store)
	next, commits := 1000, 60
	for i := 0; i < commits; i++ {
		var batch []Update
		for j := 0; j < 24; j++ {
			// Near-dominating tuples reach many utilities' Φ, which makes
			// the runs large enough to fan out.
			p := Point{ID: next, Values: []float64{0.8 + 0.2*rng.Float64(), 0.8 + 0.2*rng.Float64(), 0.8 + 0.2*rng.Float64()}}
			next++
			batch = append(batch, Ins(p))
		}
		res := store.Current().Result()
		batch = append(batch,
			Del(res[rng.Intn(len(res))].ID), // an answer tuple: requeries
			Del(next-24),
			Ins(Point{ID: next - 23, Values: []float64{rng.Float64(), rng.Float64(), rng.Float64()}})) // replace
		if err := store.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	e, c := storeCounters(store)
	if e.ParallelRuns == e0.ParallelRuns {
		t.Fatal("no run went through the worker pool")
	}

	want := map[string]int64{
		`fdrms_topk_ops_total{kind="insert"}`:          int64(e.InsertOps - e0.InsertOps),
		`fdrms_topk_ops_total{kind="delete"}`:          int64(e.DeleteOps - e0.DeleteOps),
		"fdrms_topk_affected_total":                    int64(e.AffectedTotal - e0.AffectedTotal),
		"fdrms_topk_requeries_total":                   int64(e.Requeries - e0.Requeries),
		"fdrms_topk_promotions_total":                  int64(e.Promotions - e0.Promotions),
		"fdrms_topk_changes_total":                     int64(e.Changes - e0.Changes),
		"fdrms_topk_runs_total":                        int64(e.Runs - e0.Runs),
		"fdrms_topk_parallel_runs_total":               int64(e.ParallelRuns - e0.ParallelRuns),
		`fdrms_topk_phase_ns_total{phase="candidate"}`: e.CandNs - e0.CandNs,
		`fdrms_topk_phase_ns_total{phase="index"}`:     e.IndexNs - e0.IndexNs,
		`fdrms_topk_phase_ns_total{phase="fanout"}`:    e.FanoutNs - e0.FanoutNs,
		`fdrms_topk_phase_ns_total{phase="merge"}`:     e.MergeNs - e0.MergeNs,
		`fdrms_topk_phase_ns_total{phase="emit"}`:      e.EmitNs - e0.EmitNs,
		// One pool dispatch per parallel run.
		"fdrms_pool_dispatches_total":                     int64(e.ParallelRuns - e0.ParallelRuns),
		"fdrms_pool_shard_jobs_total":                     int64(e.ShardJobs - e0.ShardJobs),
		"fdrms_pool_busy_ns_total":                        e.BusyNs - e0.BusyNs,
		"fdrms_setcover_takeovers_total":                  int64(c.Takeovers - c0.Takeovers),
		"fdrms_setcover_reassignments_total":              int64(c.Reassignments - c0.Reassignments),
		`fdrms_setcover_slab_alloc_total{src="freelist"}`: int64(c.SlabReuse - c0.SlabReuse),
		`fdrms_setcover_slab_alloc_total{src="fresh"}`:    int64(c.SlabFresh - c0.SlabFresh),
		"fdrms_setcover_slab_releases_total":              int64(c.SlabReleases - c0.SlabReleases),
		"fdrms_setcover_slab_words":                       int64(c.SlabWords),
		"fdrms_setcover_slab_live_words":                  int64(c.SlabLiveWords),
	}
	var scrape strings.Builder
	if err := reg.WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(scrape.String(), "\n") {
		if !strings.HasPrefix(line, "fdrms_topk_") && !strings.HasPrefix(line, "fdrms_pool_") && !strings.HasPrefix(line, "fdrms_setcover_") {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		w, ok := want[series]
		if !ok {
			t.Errorf("series %s is not checked here", series)
			continue
		}
		seen++
		if val != strconv.FormatInt(w, 10) {
			t.Errorf("%s = %s, want %d", series, val, w)
		}
		if w == 0 {
			t.Errorf("%s did not move: the stream does not exercise it", series)
		}
	}
	if seen != len(want) {
		t.Errorf("scrape lists %d engine and solver series, want %d", seen, len(want))
	}

	traces := tel.Trace().Snapshot()
	if len(traces) != commits {
		t.Fatalf("trace ring holds %d records, want %d", len(traces), commits)
	}
	var sum obs.BatchTrace
	for _, tr := range traces {
		sum.Changes += tr.Changes
		sum.Requeries += tr.Requeries
		sum.CandNs += tr.CandNs
		sum.IndexNs += tr.IndexNs
		sum.FanoutNs += tr.FanoutNs
		sum.MergeNs += tr.MergeNs
		sum.EmitNs += tr.EmitNs
	}
	if sum.Changes != e.Changes-e0.Changes || sum.Requeries != e.Requeries-e0.Requeries {
		t.Errorf("traces sum to %d changes and %d requeries, engine counted %d and %d",
			sum.Changes, sum.Requeries, e.Changes-e0.Changes, e.Requeries-e0.Requeries)
	}
	if sum.CandNs+sum.IndexNs+sum.FanoutNs+sum.MergeNs+sum.EmitNs != (e.CandNs-e0.CandNs)+(e.IndexNs-e0.IndexNs)+
		(e.FanoutNs-e0.FanoutNs)+(e.MergeNs-e0.MergeNs)+(e.EmitNs-e0.EmitNs) {
		t.Errorf("trace phase times do not add up to the engine's")
	}
}

// The slab gauges are levels: right after the attach, and after later
// commits, they read the solver's own words, and a second store attached to
// the same telemetry (a follower's resync) takes them over.
func TestSlabGaugesReportLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const d = 3
	opts := Options{K: 1, R: 8, Epsilon: 0.05, MaxUtilities: 256, Seed: 5}
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	check := func(s *Store, when string) {
		t.Helper()
		_, c := storeCounters(s)
		words := reg.Gauge("fdrms_setcover_slab_words", "").Load()
		live := reg.Gauge("fdrms_setcover_slab_live_words", "").Load()
		if words != int64(c.SlabWords) || live != int64(c.SlabLiveWords) || live <= 0 {
			t.Fatalf("%s: gauges read %d words, %d live; the solver holds %d, %d live",
				when, words, live, c.SlabWords, c.SlabLiveWords)
		}
	}

	store, err := NewStore(d, randomPoints(rng, 2000, d, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SetTelemetry(tel)
	check(store, "after attach")
	store.Delete(store.Current().Result()[0].ID)
	for id := 0; id < 20; id++ {
		store.Delete(id)
	}
	check(store, "after deletes")

	second, err := NewStore(d, randomPoints(rng, 300, d, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetTelemetry(tel)
	check(second, "after a second store's attach")
	second.Delete(second.Current().Result()[0].ID)
	check(second, "after the second store's delete")
}
