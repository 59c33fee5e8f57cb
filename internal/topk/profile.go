package topk

// Counters are the engine's cumulative work counters. They are plain ints
// owned by the single writer; the serving layer reads them between commits
// and publishes each commit's change (rms/telemetry.go), so the engine
// counts every event exactly once and knows no metric names.
//
// The per-phase times split one run along the pipeline stages:
//
//	candidate — utility-index probes and task-list construction
//	index     — tuple-index mutation (inserts or tombstoning)
//	fanout    — the parallel per-shard Φ maintenance phase
//	merge     — counter folding and cone-tree threshold repair
//	emit      — the k-way change merge and group emission
//
// Every time is a delta of the installed phase clock (SetPhaseClock) and
// stays zero when no clock is installed.
type Counters struct {
	InsertOps     int // insert operations processed
	DeleteOps     int // delete operations processed
	AffectedTotal int // utilities whose Φ changed, summed over operations
	Requeries     int // fresh tuple-index top-k queries during maintenance
	Promotions    int // top-k vacancies filled by a buffered runner-up
	Changes       int // membership changes emitted across runs

	Runs         int   // insert/delete runs executed by the batch path
	ParallelRuns int   // runs dispatched to the worker pool (one dispatch each)
	ShardJobs    int   // shard jobs enqueued across pool dispatches
	BusyNs       int64 // summed worker wall time across phases

	CandNs, IndexNs, FanoutNs, MergeNs, EmitNs int64 // per-phase wall time
}

// SetPhaseClock installs (or, with nil, removes) the timestamp source for
// phase profiling. The clock returns monotonic nanoseconds and MUST be safe
// for concurrent calls: shard workers stamp their busy time from pool
// goroutines.
//
// The engine deliberately takes the clock as an injected function value
// instead of reading the wall clock itself: every timing feeds only the
// profiling report, never state, changes, or snapshots, and the injection
// point keeps the package's determinism contract machine-checkable — the
// nondet analyzer walks the static call graph from ApplyBatch and would
// flag a direct time.Now in it, while a caller-supplied hook is an audited
// boundary the analyzer (correctly) treats as opaque. Must be called by the
// engine's single writer, like every mutating entry point.
func (e *Engine) SetPhaseClock(clock func() int64) { e.clock = clock }

// PhaseTotals returns the accumulated per-phase nanosecond counters. Caller
// must hold the engine's single-writer role.
func (e *Engine) PhaseTotals() (candidate, index, fanout, merge, emit int64) {
	return e.CandNs, e.IndexNs, e.FanoutNs, e.MergeNs, e.EmitNs
}

// now returns the phase-clock timestamp, or 0 with no clock installed.
func (e *Engine) now() int64 {
	if e.clock == nil {
		return 0
	}
	return e.clock()
}

// recordPhase counts one run and folds its boundary timestamps into the
// phase times. The seven stamps bracket, in order: candidate probing,
// index mutation, task building, the parallel fan-out, the merge, and
// group emission.
func (e *Engine) recordPhase(probe0, probe1, index1, build1, fanout1, merge1, emit1 int64) {
	e.Runs++
	if e.clock == nil {
		return
	}
	e.CandNs += (probe1 - probe0) + (build1 - index1)
	e.IndexNs += index1 - probe1
	e.FanoutNs += fanout1 - build1
	e.MergeNs += merge1 - fanout1
	e.EmitNs += emit1 - merge1
}
