// Package core implements FD-RMS, the fully-dynamic k-regret minimizing set
// algorithm of Wang et al. (ICDE 2021) — the primary contribution of the
// paper this repository reproduces.
//
// FD-RMS transforms dynamic k-RMS into dynamic set cover. It samples M
// utility vectors (the d standard basis vectors first, then uniform draws
// from the nonnegative unit sphere), maintains the ε-approximate top-k
// result Φ_{k,ε}(u_i, P_t) of every vector under tuple insertions and
// deletions (package topk), and keeps a stable set-cover solution (package
// setcover) over the set system
//
//	Σ = (U, S),  U = {u_1..u_m},  S(p) = {u ∈ U : p ∈ Φ_{k,ε}(u, P_t)},
//
// where m ∈ [r, M] is tuned so that the cover uses exactly r sets. The
// tuples whose sets form the cover are the k-RMS answer Q_t. Theorem 2
// shows Q_t is a (k, O(ε*_{k,r'} + δ))-regret set with r' = O(r / log m)
// and δ = O(m^{-1/(d-1)}).
package core

import (
	"fmt"
	"sort"

	"fdrms/internal/geom"
	"fdrms/internal/setcover"
	"fdrms/internal/topk"
)

// Config carries the FD-RMS parameters of Algorithm 2.
type Config struct {
	K   int     // rank depth of the k-regret measure (k >= 1)
	R   int     // result size constraint r
	Eps float64 // approximation factor ε of the top-k results, in (0, 1)
	M   int     // upper bound on the number of sampled utility vectors (M > r)

	// Seed makes the utility sample reproducible.
	Seed int64

	// Shards is the number of utility-state shards of the top-k engine;
	// zero means topk.DefaultShards (four per available CPU). The answer
	// does not depend on it.
	Shards int
}

func (c Config) validate(dim int) error {
	if c.K < 1 {
		return fmt.Errorf("core: K = %d, need K >= 1", c.K)
	}
	if c.R < 1 {
		return fmt.Errorf("core: R = %d, need R >= 1", c.R)
	}
	if c.Eps <= 0 || c.Eps >= 1 {
		return fmt.Errorf("core: Eps = %v, need 0 < Eps < 1", c.Eps)
	}
	if c.M <= c.R {
		return fmt.Errorf("core: M = %d must exceed R = %d", c.M, c.R)
	}
	if c.M < dim {
		return fmt.Errorf("core: M = %d must be at least the dimension %d", c.M, dim)
	}
	return nil
}

// Stats exposes maintenance counters for the experiment harness.
type Stats struct {
	M             int // current sample size m (universe size)
	CoverSize     int // |C|
	Takeovers     int // STABILIZE takeover steps so far
	Reassignments int // set-cover reassignments so far
	Utilities     int // total maintained utilities (== Config.M)
}

// FDRMS is the fully-dynamic k-RMS maintenance structure.
type FDRMS struct {
	cfg Config
	dim int

	engine *topk.Engine     // Φ_{k,ε} of all M utilities over P_t
	cover  *setcover.Solver // stable set cover over Σ
	m      int              // current universe size (u_0 .. u_{m-1})

	// Reused by the single-op wrappers and ApplyBatch so the sequential
	// update path allocates no per-op closures or slices.
	opBuf  [1]topk.Op
	emitFn func(op topk.Op, changes []topk.Change)
}

// New runs Algorithm 2 (INITIALIZATION) on the initial database.
// The point slice is not retained.
func New(dim int, points []geom.Point, cfg Config) (*FDRMS, error) {
	if err := cfg.validate(dim); err != nil {
		return nil, err
	}
	// Line 1: M vectors, standard basis first.
	vecs := geom.BasisThenRandom(dim, cfg.M, cfg.Seed)
	utilities := make([]topk.Utility, cfg.M)
	for i, u := range vecs {
		utilities[i] = topk.Utility{ID: i, U: u}
	}
	f := &FDRMS{cfg: cfg, dim: dim}
	// Line 2: ε-approximate top-k result of every u_i.
	if cfg.Shards > 0 {
		f.engine = topk.NewEngineShards(dim, cfg.K, cfg.Eps, points, utilities, cfg.Shards)
	} else {
		f.engine = topk.NewEngine(dim, cfg.K, cfg.Eps, points, utilities)
	}

	// Register the full membership relation once; the universe (and hence
	// which memberships participate in covering) is chosen below. Points
	// and memberships are registered in ascending id order so greedy
	// tie-breaks (and hence the initial cover) are identical run to run.
	f.cover = setcover.NewSolver()
	pts := f.engine.Points()
	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
	for _, p := range pts {
		f.cover.RegisterSet(p.ID)
		for _, uid := range f.engine.SetOf(p.ID) {
			f.cover.AddSetMember(p.ID, uid)
		}
	}

	// Lines 3–14: binary search for the largest m ∈ [r, M] whose greedy
	// cover needs at most r sets, then settle |C| = r where possible.
	lo, hi := cfg.R, cfg.M
	best := cfg.R
	for lo <= hi {
		mid := (lo + hi) / 2
		f.cover.ResetUniverse(rangeInts(mid))
		switch {
		case f.cover.Size() < cfg.R:
			best = mid
			lo = mid + 1
		case f.cover.Size() > cfg.R:
			hi = mid - 1
		default:
			best = mid
			lo = mid + 1 // an even larger m may still fit in r sets
		}
	}
	f.cover.ResetUniverse(rangeInts(best))
	f.m = best
	// Algorithm 4 polishes |C| to exactly r (or m = M).
	f.updateM()
	return f, nil
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Insert applies Δ_t = 〈p, +〉 (Algorithm 3, Lines 1–8).
func (f *FDRMS) Insert(p geom.Point) {
	f.opBuf[0] = topk.InsertOp(p)
	f.ApplyBatch(f.opBuf[:1])
	f.opBuf[0] = topk.Op{} // don't pin the tuple past the call
}

// Delete applies Δ_t = 〈p, −〉 (Algorithm 3, Lines 9–12).
// Deleting a missing id is a no-op.
func (f *FDRMS) Delete(id int) {
	f.opBuf[0] = topk.DeleteOp(id)
	f.ApplyBatch(f.opBuf[:1])
	f.opBuf[0] = topk.Op{}
}

// ApplyBatch applies a sequence of tuple insertions and deletions. The
// engine executes the per-utility Φ maintenance of consecutive insertions
// in one shard-parallel phase; each operation's membership deltas are then
// replayed into the set cover in operation order — additions first, then
// removals, then settle — exactly as Algorithm 3 prescribes for a single
// update. Replaying per operation rather than once per batch is what makes
// ApplyBatch provably equivalent to the one-by-one path: stable set-cover
// solutions are path-dependent, so reordering deltas across operations
// could settle on a different (equally valid) cover. The set-cover work is
// a small fraction of an update's cost; the batch win comes from the
// engine's parallel phase and the amortized index maintenance around it.
func (f *FDRMS) ApplyBatch(ops []topk.Op) {
	for _, op := range ops {
		if !op.Delete && op.Point.Dim() != f.dim {
			panic(fmt.Sprintf("core: inserting %d-dimensional point into %d-dimensional FD-RMS", op.Point.Dim(), f.dim))
		}
	}
	if f.emitFn == nil {
		f.emitFn = func(op topk.Op, changes []topk.Change) {
			if op.Delete {
				f.applyChanges(changes)
				f.settle(op.ID, true)
				return
			}
			f.cover.RegisterSet(op.Point.ID)
			f.applyChanges(changes)
			f.settle(0, false)
		}
	}
	f.engine.ApplyBatchFunc(ops, f.emitFn)
}

// applyChanges replays Φ membership deltas into the set system. Additions
// go first so every reassignment triggered by a removal sees the complete
// up-to-date system (the paper's Lines 5–8 and 9–12 rely on the same
// ordering: the inserted tuple's set S(p), or the sets that grew after a
// deletion, exist before any element is reassigned away from a shrinking
// set).
func (f *FDRMS) applyChanges(changes []topk.Change) {
	for _, c := range changes {
		if c.Added {
			f.cover.AddSetMember(c.PointID, c.UtilityID)
		}
	}
	for _, c := range changes {
		if !c.Added {
			f.cover.RemoveSetMember(c.PointID, c.UtilityID)
		}
	}
}

// settle drops the deleted tuple's emptied set (when wasDelete) and
// restores |C| = r (Algorithm 3, Lines 13–14).
func (f *FDRMS) settle(deleted int, wasDelete bool) {
	if wasDelete {
		f.cover.DropSetIfEmpty(deleted)
	}
	if f.cover.Size() != f.cfg.R {
		f.updateM()
	}
}

// updateMMaxFlips bounds the grow/shrink direction changes of one updateM
// call. A single element step usually moves |C| by at most one, but a
// STABILIZE cascade can jump it (one RemoveElement may empty several sets
// via takeovers, one AddElement may open a set a takeover then keeps), so
// the walk can overshoot r in either direction and needs both directions to
// reach a fixpoint. Stable covers are path-dependent, so a pathological
// system could in principle keep crossing r; after this many flips the walk
// settles for the current |C| <= r state instead of chasing it.
const updateMMaxFlips = 32

// updateM is Algorithm 4: grow or shrink the universe one utility vector at
// a time until the stable cover uses exactly r sets, m reaches M, or m
// reaches its lower bound r. Growing and shrinking alternate as needed —
// a shrink step that collapses several sets at once (takeover cascade) can
// undershoot r and leave room to grow again, which a one-directional walk
// would miss.
func (f *FDRMS) updateM() {
	growing := f.cover.Size() < f.cfg.R
	flips := 0
	for {
		switch size := f.cover.Size(); {
		case size < f.cfg.R && f.m < f.cfg.M:
			if !growing {
				growing = true
				if flips++; flips > updateMMaxFlips {
					// Oscillation guard: |C| < r is a valid (if conservative)
					// answer; |C| > r would violate the size constraint, so
					// only the grow direction may give up.
					return
				}
			}
			// Memberships of u_m are already registered (the engine maintains
			// all M utilities), so only the universe grows.
			f.cover.AddElement(f.m)
			f.m++
		case size > f.cfg.R && f.m > f.cfg.R:
			if growing {
				growing = false
				flips++
			}
			f.m--
			f.cover.RemoveElement(f.m)
		default:
			return
		}
	}
}

// Result returns Q_t: the tuples whose sets form the current cover,
// ordered by id. The slice is freshly allocated.
func (f *FDRMS) Result() []geom.Point {
	ids := f.cover.Solution()
	out := make([]geom.Point, 0, len(ids))
	for _, id := range ids {
		if p, ok := f.engine.PointByID(id); ok {
			out = append(out, p)
		}
	}
	return out
}

// ResultIDs returns the ids of Q_t in ascending order.
func (f *FDRMS) ResultIDs() []int { return f.cover.Solution() }

// Len returns |P_t|.
func (f *FDRMS) Len() int { return f.engine.Len() }

// Contains reports whether tuple id is live.
func (f *FDRMS) Contains(id int) bool { return f.engine.Contains(id) }

// Points returns a copy of the live database.
func (f *FDRMS) Points() []geom.Point {
	pts := f.engine.Points()
	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
	return pts
}

// Config returns the configuration the structure was built with.
func (f *FDRMS) Config() Config { return f.cfg }

// Stats returns current maintenance counters.
func (f *FDRMS) Stats() Stats {
	return Stats{
		M:             f.m,
		CoverSize:     f.cover.Size(),
		Takeovers:     f.cover.Takeovers,
		Reassignments: f.cover.Reassignments,
		Utilities:     f.cfg.M,
	}
}

// RebuildCover discards the maintained stable cover and re-runs GREEDY on
// the current set system. FD-RMS never needs this — it exists for the
// ablation experiment that compares incremental stable-cover maintenance
// against per-operation re-greedy (EXPERIMENTS.md §5.1).
func (f *FDRMS) RebuildCover() {
	f.cover.Greedy()
	if f.cover.Size() != f.cfg.R {
		f.updateM()
	}
}

// Engine exposes the underlying top-k maintenance engine for
// instrumentation (ablation experiments read its counters).
func (f *FDRMS) Engine() *topk.Engine { return f.engine }

// Instrument installs metric mirrors on the engine and the cover solver,
// and (when non-nil) the phase clock behind the engine's per-phase timing.
// The clock is injected by the caller for the same reason SetPhaseClock
// takes a function value: timings feed only reporting, and the audited
// injection boundary keeps this package's determinism contract
// machine-checkable. Must be called by the structure's single writer; nil
// arguments uninstall the corresponding piece.
func (f *FDRMS) Instrument(em *topk.Metrics, cm *setcover.Metrics, clock func() int64) {
	f.engine.SetMetrics(em)
	f.engine.SetPhaseClock(clock)
	f.cover.SetMetrics(cm)
}

// Close releases the engine's persistent shard worker pool. The structure
// remains fully usable afterwards (parallel phases run inline); Close is
// idempotent and should be called when the instance is retired so long-lived
// processes that build many instances do not accumulate parked goroutines.
func (f *FDRMS) Close() { f.engine.Close() }

// CheckInvariants verifies the internal consistency of the structure: the
// stable-cover invariants (Definition 2) and the agreement between the
// set system and the maintained top-k memberships. Intended for tests.
func (f *FDRMS) CheckInvariants() error {
	if err := f.cover.CheckStable(); err != nil {
		return err
	}
	if got := f.cover.UniverseSize(); got != f.m {
		return fmt.Errorf("core: universe size %d != m %d", got, f.m)
	}
	if f.cover.Size() > f.cfg.R && f.m > f.cfg.R {
		return fmt.Errorf("core: |C| = %d exceeds r = %d with m = %d", f.cover.Size(), f.cfg.R, f.m)
	}
	for _, p := range f.engine.Points() {
		set := f.engine.SetOf(p.ID)
		for _, uid := range set {
			if uid < f.m && !f.cover.HasSet(p.ID) {
				return fmt.Errorf("core: tuple %d in Φ(u_%d) but unregistered in the cover", p.ID, uid)
			}
		}
		// The solver's set S(p) must mirror the engine's membership exactly —
		// a drifted set system (e.g. a replace group applied out of order)
		// corrupts every later covering decision.
		if got := f.cover.SetSize(p.ID); got != len(set) {
			return fmt.Errorf("core: set system drift: solver S(%d) has %d members, engine Φ-transpose has %d", p.ID, got, len(set))
		}
	}
	return nil
}
