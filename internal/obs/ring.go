package obs

import "sync"

// BatchTrace is one per-batch record: what the batch was, what it changed,
// and where its nanoseconds went (per-phase values come from the engine's
// injected phase clock, topk.Engine.SetPhaseClock, and are zero when no
// clock is installed).
// Field names are the JSON wire format served by /debug/vars.
type BatchTrace struct {
	Seq        uint64 `json:"seq"`        // monotone record number (never wraps)
	Generation uint64 `json:"generation"` // generation id the batch published
	Ops        int    `json:"ops"`        // total operations in the batch
	Inserts    int    `json:"inserts"`
	Deletes    int    `json:"deletes"`
	Changes    int    `json:"changes"`   // top-k membership changes emitted
	Requeries  int    `json:"requeries"` // index requeries (delete repair)
	CandNs     int64  `json:"candidate_ns"`
	IndexNs    int64  `json:"index_ns"`
	FanoutNs   int64  `json:"fanout_ns"`
	MergeNs    int64  `json:"merge_ns"`
	EmitNs     int64  `json:"emit_ns"`
	TotalNs    int64  `json:"total_ns"` // wall time of the whole write
}

// TraceRing is a fixed-size ring of the most recent batch traces. Record
// copies into a preallocated slot under a mutex — no allocation, and the
// critical section is a struct copy, so the writer's batch path pays
// nanoseconds, not milliseconds. Snapshot (scrape path) allocates a fresh
// ordered copy. All methods are safe on a nil receiver.
type TraceRing struct {
	mu  sync.Mutex
	buf []BatchTrace
	n   uint64 // total records ever written
}

// NewTraceRing returns a ring holding the last size traces (minimum 1).
func NewTraceRing(size int) *TraceRing {
	if size < 1 {
		size = 1
	}
	return &TraceRing{buf: make([]BatchTrace, size)}
}

// Record appends *t, stamping its Seq. The pointer is not retained.
func (r *TraceRing) Record(t *BatchTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t.Seq = r.n
	r.buf[r.n%uint64(len(r.buf))] = *t
	r.n++
	r.mu.Unlock()
}

// Total returns the number of traces ever recorded.
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot returns the retained traces, oldest first. The result is a
// fresh slice safe to hold across further Records.
func (r *TraceRing) Snapshot() []BatchTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	kept := r.n
	if kept > size {
		kept = size
	}
	out := make([]BatchTrace, 0, kept)
	for i := r.n - kept; i < r.n; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}
