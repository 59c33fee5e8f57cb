// Serving telemetry: one Telemetry value aggregates the obs handles of
// every layer under a store — engine (topk), cover (setcover), WAL,
// checkpoints, and the store's own publish/read accounting — plus the
// per-batch trace ring behind /debug/vars.
//
// NewTelemetry registers EVERY family up front, so a scrape of a freshly
// attached store already exposes all five layer prefixes (fdrms_topk_,
// fdrms_pool_, fdrms_setcover_, fdrms_wal_, fdrms_store_) at zero rather
// than families popping into existence with traffic — monitoring rules can
// be written against a fixed set.
//
// The engine and the cover solver keep plain cumulative counters and know
// no metric names. The store reads both before and after every commit
// (traceBegin, traceEnd) and publishes the difference: each counter's
// commit delta goes into its family and into the commit's BatchTrace, so
// every event is counted once, and only at commit boundaries.
//
// The rms package sits outside the engine's determinism contract, so it
// may read the wall clock; timings cross into the contract-bound engine
// only through the audited SetPhaseClock injection boundary.
package rms

import (
	"time"

	"fdrms/internal/obs"
	"fdrms/internal/setcover"
	"fdrms/internal/topk"
	"fdrms/internal/wal"
)

// processStart anchors the process-local monotonic clock. Durations derived
// from it are immune to wall-clock steps.
var processStart = time.Now()

// monotonicNanos is the phase clock injected into the engine and the
// timestamp source for every rms-level timing. Safe for concurrent calls.
func monotonicNanos() int64 { return int64(time.Since(processStart)) }

// traceRingSize is how many recent batch traces /debug/vars retains.
const traceRingSize = 256

// Telemetry is the handle bundle one registry's worth of store
// instrumentation. Build it once with NewTelemetry and attach it with
// Store.SetTelemetry (or DurableStore.SetTelemetry, which also wires the
// WAL); several sequential stores may share one Telemetry.
type Telemetry struct {
	reg *obs.Registry

	// WAL is the log's handle set, installed by DurableStore.SetTelemetry.
	WAL *wal.Metrics

	// Engine and cover-solver families, written only by traceEnd.
	insertOps, deleteOps                       *obs.Counter
	affected, requeries, promotions, changes   *obs.Counter
	runs, parallelRuns                         *obs.Counter
	candNs, indexNs, fanoutNs, mergeNs, emitNs *obs.Counter
	dispatches, shardJobs, busyNs              *obs.Counter
	takeovers, reassignments                   *obs.Counter
	slabReuse, slabFresh, slabReleases         *obs.Counter
	slabWords, slabLiveWords                   *obs.Gauge

	publishes *obs.Counter

	readResultNs *obs.Histogram
	readTopKNs   *obs.Histogram
	readRegretNs *obs.Histogram

	checkpoints *obs.Counter
	ckptNs      *obs.Histogram
	ckptChunks  *obs.Counter
	ckptStallNs *obs.Histogram

	traces *obs.TraceRing
}

// NewTelemetry registers every layer's metric families on reg and returns
// the bundle, or nil when reg is nil (instrumentation off).
func NewTelemetry(reg *obs.Registry) *Telemetry {
	if reg == nil {
		return nil
	}
	readNs := func(kind string) *obs.Histogram {
		return reg.Histogram("fdrms_store_read_ns", "latency of one lock-free store read, nanoseconds", obs.L("kind", kind))
	}
	ops := func(kind string) *obs.Counter {
		return reg.Counter("fdrms_topk_ops_total", "operations processed by the engine", obs.L("kind", kind))
	}
	phaseNs := func(p string) *obs.Counter {
		return reg.Counter("fdrms_topk_phase_ns_total",
			"nanoseconds per batch pipeline phase (injected phase clock; 0 without one)", obs.L("phase", p))
	}
	slabAlloc := func(src string) *obs.Counter {
		return reg.Counter("fdrms_setcover_slab_alloc_total", "slab fragment allocations", obs.L("src", src))
	}
	return &Telemetry{
		reg: reg,
		WAL: wal.NewMetrics(reg),

		insertOps:    ops("insert"),
		deleteOps:    ops("delete"),
		affected:     reg.Counter("fdrms_topk_affected_total", "utilities whose Phi changed, summed over operations"),
		requeries:    reg.Counter("fdrms_topk_requeries_total", "fresh tuple-index top-k queries during maintenance"),
		promotions:   reg.Counter("fdrms_topk_promotions_total", "top-k vacancies filled by a buffered runner-up (no requery)"),
		changes:      reg.Counter("fdrms_topk_changes_total", "membership changes emitted to the set-cover layer"),
		runs:         reg.Counter("fdrms_topk_runs_total", "insert/delete runs executed by the batch path"),
		parallelRuns: reg.Counter("fdrms_topk_parallel_runs_total", "runs whose fan-out went through the worker pool"),
		candNs:       phaseNs("candidate"),
		indexNs:      phaseNs("index"),
		fanoutNs:     phaseNs("fanout"),
		mergeNs:      phaseNs("merge"),
		emitNs:       phaseNs("emit"),
		dispatches:   reg.Counter("fdrms_pool_dispatches_total", "parallel phases dispatched to the worker pool"),
		shardJobs:    reg.Counter("fdrms_pool_shard_jobs_total", "shard jobs enqueued across pool dispatches"),
		busyNs:       reg.Counter("fdrms_pool_busy_ns_total", "summed worker wall time across phases (injected phase clock)"),

		takeovers:     reg.Counter("fdrms_setcover_takeovers_total", "STABILIZE takeover steps executed"),
		reassignments: reg.Counter("fdrms_setcover_reassignments_total", "element reassignments due to set-member removals"),
		slabReuse:     slabAlloc("freelist"),
		slabFresh:     slabAlloc("fresh"),
		slabReleases:  reg.Counter("fdrms_setcover_slab_releases_total", "slab fragments threaded back onto freelists"),
		slabWords:     reg.Gauge("fdrms_setcover_slab_words", "int32 words carved from the slab tail (never shrinks)"),
		slabLiveWords: reg.Gauge("fdrms_setcover_slab_live_words", "int32 words in fragments currently allocated"),

		publishes: reg.Counter("fdrms_store_publishes_total", "generations published (committed writes)"),

		readResultNs: readNs("result"),
		readTopKNs:   readNs("topk"),
		readRegretNs: readNs("regret"),

		checkpoints: reg.Counter("fdrms_store_checkpoints_total", "checkpoints persisted"),
		ckptNs:      reg.Histogram("fdrms_store_checkpoint_ns", "wall time of one whole streaming checkpoint, nanoseconds"),
		ckptChunks:  reg.Counter("fdrms_store_checkpoint_chunks_total", "streaming-capture chunk windows taken under the writer lock"),
		ckptStallNs: reg.Histogram("fdrms_store_checkpoint_stall_ns", "writer-lock hold time of one capture chunk window, nanoseconds"),

		traces: obs.NewTraceRing(traceRingSize),
	}
}

// Trace returns the per-batch trace ring (nil on a nil Telemetry).
func (t *Telemetry) Trace() *obs.TraceRing {
	if t == nil {
		return nil
	}
	return t.traces
}

// PhaseVars is the phase breakdown served by /debug/vars, read from the
// engine families (atomic, so safe against a concurrent writer).
type PhaseVars struct {
	Runs         uint64 `json:"runs"`
	ParallelRuns uint64 `json:"parallel_runs"`
	CandidateNs  uint64 `json:"candidate_ns"`
	IndexNs      uint64 `json:"index_ns"`
	FanoutNs     uint64 `json:"fanout_ns"`
	MergeNs      uint64 `json:"merge_ns"`
	EmitNs       uint64 `json:"emit_ns"`
}

// DebugVars is the JSON document served by /debug/vars: the recent batch
// traces plus the cumulative phase breakdown.
type DebugVars struct {
	TracesTotal uint64           `json:"traces_total"`
	Traces      []obs.BatchTrace `json:"traces"`
	Phase       PhaseVars        `json:"phase"`
}

// DebugVars assembles the current /debug/vars document. Safe to call from
// any goroutine.
func (t *Telemetry) DebugVars() DebugVars {
	if t == nil {
		return DebugVars{}
	}
	return DebugVars{
		TracesTotal: t.traces.Total(),
		Traces:      t.traces.Snapshot(),
		Phase: PhaseVars{
			Runs:         t.runs.Load(),
			ParallelRuns: t.parallelRuns.Load(),
			CandidateNs:  t.candNs.Load(),
			IndexNs:      t.indexNs.Load(),
			FanoutNs:     t.fanoutNs.Load(),
			MergeNs:      t.mergeNs.Load(),
			EmitNs:       t.emitNs.Load(),
		},
	}
}

// SetTelemetry attaches the bundle to the store: the phase clock goes into
// the engine, every later commit publishes its counter deltas, the slab
// gauges take this store's levels, and gauges for the published generation
// (id, age, live tuples) are registered against this store (re-attaching
// another store to the same Telemetry repoints them — last writer wins,
// matching sequential store lifecycles). A nil Telemetry detaches
// instrumentation. Reads pick the change up atomically; writers must not
// race the call, so attach before heavy ingestion starts.
func (s *Store) SetTelemetry(t *Telemetry) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if t == nil {
		s.tel.Store(nil)
		s.d.f.Engine().SetPhaseClock(nil)
		return
	}
	s.d.f.Engine().SetPhaseClock(monotonicNanos)
	_, c := s.d.f.Counters()
	t.slabWords.Set(int64(c.SlabWords))
	t.slabLiveWords.Set(int64(c.SlabLiveWords))
	t.reg.GaugeFunc("fdrms_store_generation", "id of the newest published generation", func() float64 {
		if g := s.gen.Load(); g != nil {
			return float64(g.id)
		}
		return 0
	})
	t.reg.GaugeFunc("fdrms_store_generation_age_seconds", "age of the newest published generation", func() float64 {
		if g := s.gen.Load(); g != nil {
			return float64(monotonicNanos()-g.born) / 1e9
		}
		return 0
	})
	t.reg.GaugeFunc("fdrms_store_live_tuples", "database size of the newest published generation", func() float64 {
		if g := s.gen.Load(); g != nil {
			return float64(g.Len())
		}
		return 0
	})
	s.tel.Store(t)
}

// traceSnap is the pre-write reading behind one commit's deltas: the
// engine and solver counters before the batch. The zero value means
// "tracing off".
type traceSnap struct {
	on    bool
	t0    int64
	eng   topk.Counters
	cover setcover.Counters
}

// traceBegin reads the counters before a write; wmu must be held. Free (one
// branch) when no telemetry is attached.
func (s *Store) traceBegin() traceSnap {
	if s.tel.Load() == nil {
		return traceSnap{}
	}
	ts := traceSnap{on: true, t0: monotonicNanos()}
	ts.eng, ts.cover = s.d.f.Counters()
	return ts
}

// traceEnd publishes one committed write: every engine and solver counter's
// change since traceBegin goes into its family, the slab gauges take the
// solver's levels, and the trace ring gets the commit's record; wmu must
// still be held (the counters and the published generation are read in
// writer context).
func (s *Store) traceEnd(ts traceSnap, inserts, deletes int) {
	t := s.tel.Load()
	if t == nil || !ts.on {
		return
	}
	t.publishes.Inc()
	e, c := s.d.f.Counters()
	b, bc := &ts.eng, &ts.cover
	var gen uint64
	if g := s.gen.Load(); g != nil {
		gen = g.id
	}
	tr := obs.BatchTrace{
		Generation: gen,
		Ops:        inserts + deletes,
		Inserts:    inserts,
		Deletes:    deletes,
		Changes:    e.Changes - b.Changes,
		Requeries:  e.Requeries - b.Requeries,
		CandNs:     e.CandNs - b.CandNs,
		IndexNs:    e.IndexNs - b.IndexNs,
		FanoutNs:   e.FanoutNs - b.FanoutNs,
		MergeNs:    e.MergeNs - b.MergeNs,
		EmitNs:     e.EmitNs - b.EmitNs,
		TotalNs:    monotonicNanos() - ts.t0,
	}
	t.insertOps.Add(uint64(e.InsertOps - b.InsertOps))
	t.deleteOps.Add(uint64(e.DeleteOps - b.DeleteOps))
	t.affected.Add(uint64(e.AffectedTotal - b.AffectedTotal))
	t.requeries.Add(uint64(tr.Requeries))
	t.promotions.Add(uint64(e.Promotions - b.Promotions))
	t.changes.Add(uint64(tr.Changes))
	t.runs.Add(uint64(e.Runs - b.Runs))
	t.parallelRuns.Add(uint64(e.ParallelRuns - b.ParallelRuns))
	t.candNs.Add(uint64(tr.CandNs))
	t.indexNs.Add(uint64(tr.IndexNs))
	t.fanoutNs.Add(uint64(tr.FanoutNs))
	t.mergeNs.Add(uint64(tr.MergeNs))
	t.emitNs.Add(uint64(tr.EmitNs))
	// Every parallel run is exactly one pool dispatch.
	t.dispatches.Add(uint64(e.ParallelRuns - b.ParallelRuns))
	t.shardJobs.Add(uint64(e.ShardJobs - b.ShardJobs))
	t.busyNs.Add(uint64(e.BusyNs - b.BusyNs))
	t.takeovers.Add(uint64(c.Takeovers - bc.Takeovers))
	t.reassignments.Add(uint64(c.Reassignments - bc.Reassignments))
	t.slabReuse.Add(uint64(c.SlabReuse - bc.SlabReuse))
	t.slabFresh.Add(uint64(c.SlabFresh - bc.SlabFresh))
	t.slabReleases.Add(uint64(c.SlabReleases - bc.SlabReleases))
	t.slabWords.Set(int64(c.SlabWords))
	t.slabLiveWords.Set(int64(c.SlabLiveWords))
	t.traces.Record(&tr)
}

// SetTelemetry attaches the bundle to the durable store: the embedded
// Store is wired as in Store.SetTelemetry, the WAL gets its mirrors, and
// checkpoints get duration/chunk-stall instrumentation. Attach before
// serving; a nil Telemetry detaches.
func (ds *DurableStore) SetTelemetry(t *Telemetry) {
	ds.store.SetTelemetry(t)
	ds.wmu.Lock()
	defer ds.wmu.Unlock()
	if t == nil {
		ds.tel.Store(nil)
		ds.log.SetMetrics(nil)
		return
	}
	ds.log.SetMetrics(t.WAL)
	ds.tel.Store(t)
}
