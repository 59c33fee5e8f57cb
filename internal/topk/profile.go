package topk

// phaseNanos is the accumulated wall-time breakdown of the batched update
// path, split along the pipeline stages of one run:
//
//	candidate — utility-index probes and task-list construction
//	index     — tuple-index mutation (inserts or tombstoning)
//	fanout    — the parallel per-shard Φ maintenance phase
//	merge     — counter folding and cone-tree threshold repair
//	emit      — the k-way change merge and group emission
//
// All times are deltas of the installed phase clock (SetPhaseClock) and
// zero when no clock is installed.
type phaseNanos struct {
	candidate, index, fanout, merge, emit int64
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

// PhaseTotals returns the accumulated per-phase nanosecond counters, which
// the serving telemetry snapshots around every batch. Caller must hold the
// engine's single-writer role.
func (e *Engine) PhaseTotals() (candidate, index, fanout, merge, emit int64) {
	p := e.prof
	return p.candidate, p.index, p.fanout, p.merge, p.emit
}

// now returns the phase-clock timestamp, or 0 with no clock installed.
func (e *Engine) now() int64 {
	if e.clock == nil {
		return 0
	}
	return e.clock()
}

// recordPhase folds one run's boundary timestamps into the profile.
// The seven stamps bracket, in order: candidate probing, index mutation,
// task building, the parallel fan-out, the merge, and group emission.
func (e *Engine) recordPhase(probe0, probe1, index1, build1, fanout1, merge1, emit1 int64) {
	if e.clock == nil {
		e.metrics.mirrorPhase(0, 0, 0, 0, 0)
		return
	}
	cand := (probe1 - probe0) + (build1 - index1)
	index := index1 - probe1
	fanout := fanout1 - build1
	merge := merge1 - fanout1
	emit := emit1 - merge1
	e.prof.candidate += cand
	e.prof.index += index
	e.prof.fanout += fanout
	e.prof.merge += merge
	e.prof.emit += emit
	e.metrics.mirrorPhase(cand, index, fanout, merge, emit)
}
