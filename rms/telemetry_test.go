package rms_test

import (
	"math/rand"
	"strings"
	"testing"

	"fdrms/internal/obs"
	"fdrms/rms"
)

// metricFamilyPrefixes is what a scrape of a freshly attached store must
// already expose: one family per instrumented layer, traffic or not.
var metricFamilyPrefixes = []string{
	"fdrms_topk_",
	"fdrms_pool_",
	"fdrms_setcover_",
	"fdrms_wal_",
	"fdrms_store_",
}

// Attaching telemetry must expose every layer's families up front, count
// publishes per committed write, record one trace per write with consistent
// op counts, and time the read paths.
func TestStoreTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 3
	store, err := rms.NewStore(d, randomTuples(rng, 60, d, 0), rms.Options{K: 1, R: 5, Epsilon: 0.05, MaxUtilities: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	reg := obs.NewRegistry()
	tel := rms.NewTelemetry(reg)
	store.SetTelemetry(tel)

	var scrape strings.Builder
	reg.WriteText(&scrape)
	for _, prefix := range metricFamilyPrefixes {
		if !strings.Contains(scrape.String(), prefix) {
			t.Fatalf("idle scrape is missing family prefix %q:\n%s", prefix, scrape.String())
		}
	}

	// Three committed writes: one insert, one batch, one delete.
	if err := store.Insert(rms.Point{ID: 500, Values: []float64{0.9, 0.9, 0.9}}); err != nil {
		t.Fatal(err)
	}
	var batch []rms.Update
	for _, p := range randomTuples(rng, 10, d, 600) {
		batch = append(batch, rms.Ins(p))
	}
	batch = append(batch, rms.Del(0), rms.Del(1))
	if err := store.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	store.Delete(2)

	pubs := reg.Counter("fdrms_store_publishes_total", "").Load()
	if pubs != 3 {
		t.Fatalf("publishes = %d, want 3", pubs)
	}
	traces := tel.Trace().Snapshot()
	if len(traces) != 3 {
		t.Fatalf("trace ring holds %d records, want 3", len(traces))
	}
	wantOps := []struct{ ins, del int }{{1, 0}, {10, 2}, {0, 1}}
	for i, tr := range traces {
		if tr.Inserts != wantOps[i].ins || tr.Deletes != wantOps[i].del {
			t.Fatalf("trace[%d] = %d ins / %d del, want %d/%d", i, tr.Inserts, tr.Deletes, wantOps[i].ins, wantOps[i].del)
		}
		if tr.Ops != tr.Inserts+tr.Deletes {
			t.Fatalf("trace[%d].Ops = %d, want inserts+deletes = %d", i, tr.Ops, tr.Inserts+tr.Deletes)
		}
		if tr.Generation == 0 {
			t.Fatalf("trace[%d] has no generation id", i)
		}
	}
	if traces[2].Generation != store.Current().ID() {
		t.Fatalf("last trace generation = %d, want current %d", traces[2].Generation, store.Current().ID())
	}

	// Read-path latency histograms fill in once the wrapped reads run.
	u := []float64{0.2, 0.3, 0.5}
	if _, err := store.Current().TopK(u, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Current().RegretRatioFor(u); err != nil {
		t.Fatal(err)
	}
	store.Current().Result()
	for _, kind := range []string{"result", "topk", "regret"} {
		h := reg.Histogram("fdrms_store_read_ns", "", obs.L("kind", kind))
		if h.Count() == 0 {
			t.Fatalf("read histogram kind=%q saw no observations", kind)
		}
	}

	dv := tel.DebugVars()
	if dv.TracesTotal != 3 || len(dv.Traces) != 3 {
		t.Fatalf("DebugVars traces = %d/%d, want 3/3", dv.TracesTotal, len(dv.Traces))
	}
	if dv.Phase.Runs == 0 {
		t.Fatal("DebugVars phase breakdown shows no engine runs")
	}

	// Detaching stops mirroring: no further publish counts or traces.
	store.SetTelemetry(nil)
	store.Delete(3)
	if got := reg.Counter("fdrms_store_publishes_total", "").Load(); got != pubs {
		t.Fatalf("publishes moved to %d after detach", got)
	}
}

// Generation reads time themselves through the owning store's telemetry
// slot, so a generation obtained before the attach is measured too, and the
// measurement allocates nothing the read did not allocate already.
func TestGenerationReadsAllocNothingExtraWithTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := 3
	store, err := rms.NewStore(d, randomTuples(rng, 80, d, 0), rms.Options{K: 1, R: 5, Epsilon: 0.05, MaxUtilities: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	g := store.Current()
	u := []float64{0.2, 0.3, 0.5}
	reads := []struct {
		kind string
		read func()
	}{
		{"result", func() { g.Result() }},
		{"topk", func() { g.TopK(u, 5) }},
		{"regret", func() { g.RegretRatioFor(u) }},
	}
	const runs = 100
	var without []float64
	for _, r := range reads {
		without = append(without, testing.AllocsPerRun(runs, r.read))
	}

	reg := obs.NewRegistry()
	store.SetTelemetry(rms.NewTelemetry(reg))
	for i, r := range reads {
		allocs := testing.AllocsPerRun(runs, r.read)
		// The race detector makes the pooled query scratch of TopK and
		// RegretRatioFor allocate at random; only Result stays exact.
		if allocs != without[i] && (!raceEnabled || r.kind == "result") {
			t.Errorf("%s: %v allocs per read with telemetry, %v without", r.kind, allocs, without[i])
		}
		// AllocsPerRun makes one warm-up call on top of the measured runs.
		if got := reg.Histogram("fdrms_store_read_ns", "", obs.L("kind", r.kind)).Count(); got != runs+1 {
			t.Errorf("%s: %d reads recorded, want %d", r.kind, got, runs+1)
		}
	}
}

// A commit allocates the same with telemetry attached as without: the
// per-commit publish reads plain counters into preallocated handles. A
// commit's allocations follow the tuple-index pages it touches, which vary
// from one commit to the next, so twin stores take the identical commit
// sequence, one with telemetry attached and one without. The same history
// builds the same tree in both, and at this size the id table is one page,
// so the twins clone the same pages.
func TestCommitAllocsNothingExtraWithTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := 3
	initial := randomTuples(rng, 200, d, 0)
	// Every commit inserts one of two spare tuples and deletes the other.
	spare := randomTuples(rng, 2, d, 1000)
	twin := func() (*rms.Store, func()) {
		store, err := rms.NewStore(d, initial, rms.Options{K: 1, R: 5, Epsilon: 0.05, MaxUtilities: 64, Seed: 7, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Insert(spare[0]); err != nil {
			t.Fatal(err)
		}
		i := 0
		return store, func() {
			in, out := spare[(i+1)%2], spare[i%2]
			i++
			if err := store.ApplyBatch([]rms.Update{rms.Ins(in), rms.Del(out.ID)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain, plainCommit := twin()
	defer plain.Close()
	traced, tracedCommit := twin()
	defer traced.Close()
	traced.SetTelemetry(rms.NewTelemetry(obs.NewRegistry()))
	const runs = 100
	without := testing.AllocsPerRun(runs, plainCommit)
	if with := testing.AllocsPerRun(runs, tracedCommit); with != without {
		t.Errorf("%v allocs per commit with telemetry, %v without", with, without)
	}
}

// The durable store wires the WAL and checkpoint shares on top of the
// store's: appends and fsyncs mirror per batch, Checkpoint counts itself
// with duration and chunk-stall samples.
func TestDurableStoreTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 2
	ds, err := rms.OpenDurable(t.TempDir(), d, randomTuples(rng, 40, d, 0),
		rms.Options{K: 1, R: 4, Epsilon: 0.05, MaxUtilities: 32, Seed: 3},
		rms.DurableOptions{SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	reg := obs.NewRegistry()
	tel := rms.NewTelemetry(reg)
	ds.SetTelemetry(tel)

	var batch []rms.Update
	for _, p := range randomTuples(rng, 20, d, 100) {
		batch = append(batch, rms.Ins(p))
	}
	if err := ds.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fdrms_wal_appends_total", "").Load(); got != 1 {
		t.Fatalf("wal appends = %d, want 1", got)
	}
	if got := reg.Counter("fdrms_wal_fsyncs_total", "").Load(); got == 0 {
		t.Fatal("no fsyncs mirrored under SyncEveryBatch")
	}

	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fdrms_store_checkpoints_total", "").Load(); got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
	if reg.Counter("fdrms_store_checkpoint_chunks_total", "").Load() == 0 {
		t.Fatal("checkpoint recorded no capture chunk windows")
	}
	if reg.Histogram("fdrms_store_checkpoint_ns", "").Count() != 1 {
		t.Fatal("checkpoint duration histogram is empty")
	}
	if reg.Histogram("fdrms_store_checkpoint_stall_ns", "").Count() == 0 {
		t.Fatal("chunk stall histogram is empty")
	}
}
