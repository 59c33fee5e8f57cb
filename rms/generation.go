package rms

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fdrms/internal/core"
	"fdrms/internal/geom"
	"fdrms/internal/kdtree"
	"fdrms/internal/obs"
)

// Generation is one committed version of a Store: an immutable handle to the
// answer, the database membership, the maintenance stats, and an
// epoch-pinned view of the tuple index as they stood right after one write
// committed. Every method is lock-free — a pure function of the handle —
// so any number of goroutines may read one (or different) generations while
// the writer publishes new ones. Hold a Generation to get repeatable reads
// across several calls (the newest handle comes from Store.Current); drop it
// and the garbage collector reclaims the version. Result, TopK and
// RegretRatioFor record their latency in fdrms_store_read_ns when the
// owning store has telemetry attached.
type Generation struct {
	id     uint64
	result []Point      // Q_t, ascending id, deep-copied values
	stats  core.Stats   // frozen maintenance counters
	k      int          // rank depth for regret evaluation
	dim    int          // attribute count, for query validation
	index  *kdtree.View // the database pinned at this generation's epoch
	born   int64        // monotonicNanos at publish, for the age gauge

	tel *atomic.Pointer[Telemetry] // the owning store's telemetry slot
}

// observeSince records the time elapsed since start in h.
func observeSince(h *obs.Histogram, start int64) { h.Observe(monotonicNanos() - start) }

// ID returns the generation number: 1 for the initial build, +1 per
// committed write. Monotonically increasing across Store.Current calls.
func (g *Generation) ID() uint64 { return g.id }

// Epoch returns the tuple-index epoch the generation is pinned to.
func (g *Generation) Epoch() uint64 { return g.index.Epoch() }

// Result returns the k-RMS answer of this generation (at most R tuples,
// ordered by ID). The slice is immutable and shared by every caller:
// treat it as read-only, and copy tuples that need private mutation.
func (g *Generation) Result() []Point {
	if t := g.tel.Load(); t != nil {
		defer observeSince(t.readResultNs, monotonicNanos())
	}
	return g.result
}

// Len returns the database size of this generation.
func (g *Generation) Len() int { return g.index.Len() }

// Contains reports whether tuple id was live in this generation.
func (g *Generation) Contains(id int) bool { return g.index.Contains(id) }

// Stats reports the maintenance internals frozen at this generation.
func (g *Generation) Stats() core.Stats { return g.stats }

// Scored is one tuple of a TopK answer together with its utility score.
// The embedded Point shares storage with the generation: read-only.
type Scored struct {
	Point Point
	Score float64
}

// queryScratches pools kd-tree query scratch buffers across all generationsʼ
// lock-free queries (sync.Pool, not a lock: reads never wait on a writer).
var queryScratches = sync.Pool{New: func() any { return new(kdtree.QueryScratch) }}

// checkUtility validates a query utility vector against the generation's
// dimensionality. Components must be finite and nonnegative (the tuple
// index's branch-and-bound upper bounds rely on it); the vector need not be
// normalized, since scores enter only through ratios and rankings.
func (g *Generation) checkUtility(utility []float64) error {
	if len(utility) != g.dim {
		return fmt.Errorf("rms: utility has %d components, database has %d attributes", len(utility), g.dim)
	}
	for i, v := range utility {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rms: utility[%d] = %v, need finite nonnegative components", i, v)
		}
	}
	return nil
}

// TopK returns the k tuples of THIS GENERATION's database with the highest
// score <utility, p>, in decreasing score order (ties to smaller ID), with
// their scores. Fewer than k are returned when the database held fewer. The
// query runs against the pinned index view: lock-free, never waiting on a
// writer, unaffected by any concurrent or later update.
func (g *Generation) TopK(utility []float64, k int) ([]Scored, error) {
	if t := g.tel.Load(); t != nil {
		defer observeSince(t.readTopKNs, monotonicNanos())
	}
	if err := g.checkUtility(utility); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("rms: TopK k = %d, need k >= 1", k)
	}
	sc := queryScratches.Get().(*kdtree.QueryScratch)
	res := g.index.TopKInto(geom.Vector(utility), k, sc)
	out := make([]Scored, len(res))
	for i, r := range res {
		out[i] = Scored{Point: Point{ID: r.Point.ID, Values: r.Point.Coords}, Score: r.Score}
	}
	queryScratches.Put(sc)
	return out, nil
}

// RegretRatioFor evaluates this generation's answer against one preference:
// rr_k(utility, Q) = max(0, 1 - ω(utility, Q)/ω_k(utility, P)), the k-regret
// ratio the paper minimizes the maximum of. 0 means the answer serves this
// preference as well as the k-th best tuple of the whole database; the
// conventions of internal/regret apply (0 when the database is empty or
// ω_k <= 0, 1 when the answer is empty). Lock-free, pinned to this
// generation.
func (g *Generation) RegretRatioFor(utility []float64) (float64, error) {
	if t := g.tel.Load(); t != nil {
		defer observeSince(t.readRegretNs, monotonicNanos())
	}
	if err := g.checkUtility(utility); err != nil {
		return 0, err
	}
	u := geom.Vector(utility)
	sc := queryScratches.Get().(*kdtree.QueryScratch)
	kth, ok := g.index.KthScoreInto(u, g.k, sc)
	queryScratches.Put(sc)
	if !ok || kth <= 0 {
		return 0, nil
	}
	if len(g.result) == 0 {
		return 1, nil
	}
	best := 0.0
	for i, p := range g.result {
		s := 0.0
		for j, uj := range u {
			s += uj * p.Values[j]
		}
		if i == 0 || s > best {
			best = s
		}
	}
	if r := 1 - best/kth; r > 0 {
		return r, nil
	}
	return 0, nil
}
