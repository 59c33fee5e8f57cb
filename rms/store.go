package rms

import (
	"sync"
	"sync/atomic"

	"fdrms/internal/topk"
)

// Store is the MVCC serving layer around a Dynamic instance. Each committed
// write (Insert, Delete, ApplyBatch, ApplyReplicated) publishes a new
// immutable Generation — the answer, the membership, frozen stats, and an
// epoch-pinned view of the tuple index — through one atomic pointer. Every
// read goes through Current, which loads the newest generation without a
// lock: reads cannot wait on a writer, cannot observe a mid-batch state, and
// a handle obtained from Current stays exactly as it was — repeatable reads
// — for as long as the caller holds it. Writers serialize among themselves
// on a writer-only mutex; superseded generations are reclaimed by the
// garbage collector once the last reader drops them.
//
// A server typically runs one ingestion goroutine applying batches and any
// number of query goroutines; none of the query goroutines are ever blocked
// by ingestion. A write never changes index memory a published generation
// reads: it clones the tuple-index pages it touches and publishes a view
// that shares every other page, so a commit costs the pages it touched plus
// the page-table copies, not the database (see kdtree.View for the
// copy-on-write contract underneath).
type Store struct {
	// wmu serializes writers only. No read path acquires it.
	wmu sync.Mutex
	d   *Dynamic                   // engine mutations serialize on wmu; guarded by wmu
	gen atomic.Pointer[Generation] // published only by publishLocked; loads are lock-free

	ops []topk.Op // per-write batch conversion scratch; guarded by wmu

	// tel, when set, receives each commit's counter deltas and every read's
	// latency (see SetTelemetry in telemetry.go). Atomic so lock-free readers can pick it
	// up without racing the attach; nil costs readers one load+branch.
	tel atomic.Pointer[Telemetry]
}

// NewStore builds the maintenance structure over the initial database and
// returns it wrapped in a Store. See NewDynamic for the parameters.
func NewStore(dim int, initial []Point, opts Options) (*Store, error) {
	d, err := NewDynamic(dim, initial, opts)
	if err != nil {
		return nil, err
	}
	return NewStoreFrom(d), nil
}

// NewStoreFrom wraps an existing Dynamic instance, publishing generation 1
// from its current state. The caller must not use the instance directly
// afterwards.
func NewStoreFrom(d *Dynamic) *Store {
	s := &Store{d: d}
	s.publishLocked(0)
	return s
}

// publishLocked captures the post-write state as generation prev+1 and
// publishes it; wmu must be held (or the store not yet shared). The cost is
// the answer copy, O(r), plus the index view's page-table copies: the
// membership, Len and Contains, come from the view's id table, whose pages
// the commit's own writes already copied.
func (s *Store) publishLocked(prevID uint64) {
	fz := s.d.f.Freeze()
	result := make([]Point, len(fz.Result))
	for i, p := range fz.Result {
		vals := make([]float64, len(p.Coords))
		copy(vals, p.Coords)
		result[i] = Point{ID: p.ID, Values: vals}
	}
	s.gen.Store(&Generation{
		id:     prevID + 1,
		result: result,
		stats:  fz.Stats,
		k:      fz.K,
		dim:    s.d.dim,
		index:  fz.Index,
		born:   monotonicNanos(),
		tel:    &s.tel,
	})
}

// Current returns the newest committed generation: an immutable handle
// whose every read method is lock-free and pinned to that version. Use it
// to make several reads mutually consistent; call again for fresher data.
func (s *Store) Current() *Generation { return s.gen.Load() }

// Insert adds a tuple (replacing any live tuple with the same ID), updates
// the answer, and publishes a new generation: a one-element ApplyBatch.
func (s *Store) Insert(p Point) error { return s.ApplyBatch([]Update{Ins(p)}) }

// Delete removes the tuple with the given ID, updates the answer, and
// publishes a new generation. Deleting an unknown ID is a no-op that
// publishes nothing — screened against the current generation without any
// lock, so no-op deletes (common when upstream retries or mirrors a feed)
// are as cheap as reads; the check is repeated under the writer mutex in
// case a racing writer removed the tuple in between.
func (s *Store) Delete(id int) {
	if !s.gen.Load().Contains(id) {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if !s.d.Contains(id) {
		return
	}
	s.ops = append(s.ops[:0], topk.DeleteOp(id))
	s.commitLocked(s.ops)
}

// ApplyBatch applies the updates in order as one write: readers either see
// the generation before the whole batch or the one after it, never a
// mid-batch state — the preferred write path for heavy ingestion. A
// rejected batch (it is validated up front and applied all-or-nothing, see
// ErrInvalidTuple) publishes nothing, and so does an empty one.
func (s *Store) ApplyBatch(batch []Update) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ops, err := toOps(s.ops[:0], batch, s.d.dim)
	s.ops = ops
	if err != nil {
		return err
	}
	s.commitLocked(ops)
	return nil
}

// ApplyReplicated applies engine operations that were validated and logged
// before — a durable store's just-appended batch, or a follower's replayed
// WAL records — as one write, exactly like the recovery replay path.
// Coalescing several consecutive records into one call is answer-neutral
// (the engine's batch≡sequential contract). Readers are never blocked.
func (s *Store) ApplyReplicated(ops []topk.Op) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.commitLocked(ops)
}

// commitLocked is where every write ends: it applies ops to the engine,
// publishes the next generation, and records the batch trace; wmu must be
// held. An empty ops publishes nothing.
func (s *Store) commitLocked(ops []topk.Op) {
	if len(ops) == 0 {
		return
	}
	ts := s.traceBegin()
	prev := s.gen.Load().id
	s.d.f.ApplyBatch(ops)
	s.publishLocked(prev)
	dels := 0
	for _, op := range ops {
		if op.Delete {
			dels++
		}
	}
	s.traceEnd(ts, len(ops)-dels, dels)
}

// withWriteLock runs f under the writer mutex — the durable store's
// checkpoint capture hook (readers keep flowing; concurrent writers wait).
func (s *Store) withWriteLock(f func()) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	f()
}

// Close releases the wrapped instance's persistent shard worker pool (see
// Dynamic.Close). Reads and writes keep working afterwards; parallel phases
// run inline. Idempotent.
func (s *Store) Close() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.d.Close()
}
