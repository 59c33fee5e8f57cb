// Package rms is the public API of the FD-RMS reproduction: k-regret
// minimizing set computation over static and fully-dynamic databases.
//
// A k-regret minimizing set (k-RMS) of a database P is a small subset Q
// such that for EVERY linear preference, the best tuple of Q scores almost
// as well as the k-th best tuple of P — a principled way to pick r
// representative tuples without knowing user preferences (Nanongkai et al.
// 2010; Chester et al. 2014).
//
// The centerpiece is Dynamic, an implementation of FD-RMS (Wang, Li, Wong,
// Tan: "A Fully Dynamic Algorithm for k-Regret Minimizing Sets", ICDE
// 2021), which maintains the answer under arbitrary tuple insertions and
// deletions via dynamic set cover over approximate top-k results, several
// orders of magnitude faster than recomputing with a static algorithm.
// Static baselines from the literature are available through Compute for
// one-shot use and comparison.
//
// Basic usage:
//
//	db, err := rms.NewDynamic(2, hotels, rms.Options{K: 1, R: 5})
//	...
//	db.Insert(rms.Point{ID: 99, Values: []float64{0.8, 0.9}})
//	db.Delete(12)
//	top := db.Result() // always the up-to-date representative set
//
// High-throughput ingestion should batch updates: ApplyBatch executes the
// per-utility maintenance of consecutive insertions — and, symmetrically,
// of consecutive deletions (sliding-window evictions, drains) — in one
// shard-parallel phase per run while producing exactly the same answer as
// the one-by-one path.
//
//	db.ApplyBatch([]rms.Update{
//		rms.Ins(rms.Point{ID: 100, Values: []float64{0.7, 0.8}}),
//		rms.Ins(rms.Point{ID: 101, Values: []float64{0.9, 0.2}}),
//		rms.Del(12),
//	})
//
// Servers that interleave reads with writes should wrap the structure in a
// Store, the MVCC serving layer: every committed write publishes a new
// immutable Generation (answer, membership, stats, and an epoch-pinned
// index view) through one atomic pointer, so reads are lock-free and never
// wait on a writer. Every read goes through a Generation; hold one for
// repeatable reads across calls:
//
//	store := rms.NewStoreFrom(db)
//	go store.ApplyBatch(batch)         // writer
//	g := store.Current()               // pin one version, from any goroutine
//	top := g.Result()                  // the answer as of g
//	g.TopK(u, 10)                      // query the database as of g
//	g.RegretRatioFor(u)                // evaluate g's answer for one user
//
// Every tuple that enters rms — the initial database, every inserted tuple
// and every tuple of Compute's input — must have exactly dim finite,
// nonnegative values; anything else is rejected with an error wrapping
// ErrInvalidTuple before any state changes or any algorithm runs.
//
// Stores that must survive a crash or restart wrap the same machinery in a
// DurableStore: every batch is written to a CRC-checked write-ahead log
// before it is applied, Checkpoint persists full snapshots, and OpenDurable
// recovers the exact pre-crash state — bit for bit — from the newest valid
// checkpoint plus the logged tail:
//
//	store, _ := rms.OpenDurable("./state", 2, hotels, rms.Options{K: 1, R: 5},
//		rms.DurableOptions{SyncEveryBatch: true})
package rms

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fdrms/internal/baseline"
	"fdrms/internal/core"
	"fdrms/internal/geom"
	"fdrms/internal/regret"
	"fdrms/internal/skyline"
	"fdrms/internal/topk"
	"fdrms/internal/tune"
)

// Point is a database tuple: a caller-chosen unique ID and nonnegative
// attribute values where larger is better. Scale values to [0, 1] for best
// numerical behaviour (regret ratios are scale-invariant, so this does not
// change any answer).
type Point struct {
	ID     int
	Values []float64
}

func toGeom(p Point) geom.Point { return geom.Point{ID: p.ID, Coords: p.Values} }

func toGeoms(ps []Point) []geom.Point {
	out := make([]geom.Point, len(ps))
	for i, p := range ps {
		out[i] = toGeom(p)
	}
	return out
}

func fromGeoms(ps []geom.Point) []Point {
	out := make([]Point, len(ps))
	for i, p := range ps {
		out[i] = Point{ID: p.ID, Values: p.Coords}
	}
	return out
}

// Options configures a Dynamic instance.
type Options struct {
	// K is the regret rank: the answer competes with the k-th best tuple of
	// the database under every preference. K = 1 (the r-regret query) is
	// the most common choice. Default 1.
	K int
	// R is the maximum answer size. Default 10.
	R int
	// Epsilon is the approximate top-k slack of FD-RMS (paper Section
	// III-C): smaller is faster, larger can improve quality until the
	// utility-sample budget saturates. Zero selects it automatically with
	// the paper's trial-and-error rule on the initial database.
	Epsilon float64
	// MaxUtilities is the upper bound M on sampled utility vectors.
	// Default 2048.
	MaxUtilities int
	// Seed makes all sampling reproducible. Default 1.
	Seed int64
	// Shards is the number of utility-state shards used by the batched
	// update path; zero picks four per available CPU (4 × GOMAXPROCS). The
	// answer never depends on it — it only tunes ApplyBatch parallelism.
	Shards int
}

func (o Options) withDefaults(dim int, initial []geom.Point) Options {
	if o.K == 0 {
		o.K = 1
	}
	if o.R == 0 {
		o.R = 10
	}
	if o.MaxUtilities == 0 {
		o.MaxUtilities = 2048
		if o.MaxUtilities <= o.R {
			o.MaxUtilities = 4 * o.R
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Epsilon == 0 {
		o.Epsilon = tune.TuneEps(initial, dim, o.K, o.R, o.MaxUtilities, o.Seed)
	}
	return o
}

// Dynamic maintains an up-to-date k-RMS answer over a mutable database
// (the FD-RMS algorithm). It is not safe for concurrent use; wrap it in a
// mutex if multiple goroutines mutate the database.
type Dynamic struct {
	f   *core.FDRMS
	dim int
}

// NewDynamic builds the maintenance structure over the initial database
// (which may be empty). dim is the number of attributes of every tuple. An
// initial tuple that does not fit (see ErrInvalidTuple) or repeats an id
// fails the whole call.
func NewDynamic(dim int, initial []Point, opts Options) (*Dynamic, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rms: dimension %d < 1", dim)
	}
	batch := make([]Update, len(initial))
	for i, p := range initial {
		batch[i] = Ins(p)
	}
	ops, err := toOps(make([]topk.Op, 0, len(batch)), batch, dim)
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, len(ops))
	seen := make(map[int]struct{}, len(ops))
	for i, op := range ops {
		if _, dup := seen[op.Point.ID]; dup {
			return nil, fmt.Errorf("%w: initial[%d]: id %d repeats an earlier tuple", ErrInvalidTuple, i, op.Point.ID)
		}
		seen[op.Point.ID] = struct{}{}
		pts[i] = op.Point
	}
	o := opts.withDefaults(dim, pts)
	f, err := core.New(dim, pts, core.Config{
		K: o.K, R: o.R, Eps: o.Epsilon, M: o.MaxUtilities, Seed: o.Seed, Shards: o.Shards,
	})
	if err != nil {
		return nil, err
	}
	return &Dynamic{f: f, dim: dim}, nil
}

// Insert adds a tuple (replacing any live tuple with the same ID) and
// updates the answer: a one-element ApplyBatch.
func (d *Dynamic) Insert(p Point) error { return d.ApplyBatch([]Update{Ins(p)}) }

// Delete removes the tuple with the given ID and updates the answer.
// Deleting an unknown ID is a no-op.
func (d *Dynamic) Delete(id int) { d.f.Delete(id) }

// Update is one element of an ApplyBatch call: the insertion of Point when
// Delete is false, or the deletion of tuple ID when Delete is true. Build
// them with Ins and Del.
type Update struct {
	Point  Point
	ID     int
	Delete bool
}

// Ins returns the Update inserting p (replacing any live tuple with the
// same ID).
func Ins(p Point) Update { return Update{Point: p} }

// Del returns the Update deleting tuple id.
func Del(id int) Update { return Update{ID: id, Delete: true} }

// ErrInvalidTuple is wrapped by every error that rejects a tuple on its way
// into rms: values of the wrong length, or a value that is NaN, infinite or
// negative (scores, the tie order and the index bounds all assume finite
// nonnegative attributes), or an id the initial database repeats. Detect it
// with errors.Is.
var ErrInvalidTuple = errors.New("rms: invalid tuple")

// checkTuple is the per-tuple test every tuple passes on its way into rms:
// p, found at where[i], must have exactly dim finite, nonnegative values.
func checkTuple(p Point, dim int, where string, i int) error {
	if len(p.Values) != dim {
		return fmt.Errorf("%w: %s[%d]: tuple %d has %d values, database has %d attributes", ErrInvalidTuple, where, i, p.ID, len(p.Values), dim)
	}
	for j, v := range p.Values {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s[%d]: tuple %d value[%d] = %v, need a finite nonnegative number", ErrInvalidTuple, where, i, p.ID, j, v)
		}
	}
	return nil
}

// checkTuples runs checkTuple over every tuple of ps, named where.
func checkTuples(ps []Point, dim int, where string) error {
	for i, p := range ps {
		if err := checkTuple(p, dim, where, i); err != nil {
			return err
		}
	}
	return nil
}

// toOps is the one gate every tuple passes on its way into a maintained
// database, the initial database included: it checks each insertion of
// batch against a dim-attribute database and appends the batch's engine
// operations to dst. On error the result holds no operation of batch, so a
// caller applies all of it or nothing.
func toOps(dst []topk.Op, batch []Update, dim int) ([]topk.Op, error) {
	n := len(dst)
	for i, u := range batch {
		if u.Delete {
			dst = append(dst, topk.DeleteOp(u.ID))
			continue
		}
		if err := checkTuple(u.Point, dim, "batch", i); err != nil {
			return dst[:n], err
		}
		dst = append(dst, topk.InsertOp(toGeom(u.Point)))
	}
	return dst, nil
}

// ApplyBatch applies the updates in order and brings the answer up to
// date. It is equivalent to calling Insert/Delete once per update — same
// final answer, bit for bit — but the engine executes the per-utility
// top-k maintenance of each run of consecutive insertions, and likewise
// each run of consecutive deletions, in a single shard-parallel phase
// (deletions are tombstoned up front in an epoch-versioned tuple index and
// every repair requeries the database as it stood at its own operation),
// so large batches ingest at a multiple of the sequential rate on
// multi-core hosts. The whole batch is validated before any update is
// applied (see ErrInvalidTuple).
func (d *Dynamic) ApplyBatch(batch []Update) error {
	ops, err := toOps(nil, batch, d.dim)
	if err != nil {
		return err
	}
	d.f.ApplyBatch(ops)
	return nil
}

// Result returns the current k-RMS answer (at most R tuples, ordered by
// ID).
func (d *Dynamic) Result() []Point { return fromGeoms(d.f.Result()) }

// Close releases the engine's persistent shard worker pool (started lazily
// by the first batch whose fan-out goes parallel). The instance remains
// usable afterwards — parallel phases simply run inline — so Close is a
// retirement call, not a shutdown: long-lived processes that build many
// instances should Close the ones they drop. Idempotent.
func (d *Dynamic) Close() { d.f.Close() }

// Len returns the current database size.
func (d *Dynamic) Len() int { return d.f.Len() }

// Contains reports whether a tuple with the given ID is live.
func (d *Dynamic) Contains(id int) bool { return d.f.Contains(id) }

// Stats reports maintenance internals (current utility-sample size m,
// cover size, stabilization work).
func (d *Dynamic) Stats() core.Stats { return d.f.Stats() }

// Algorithms lists the available static algorithm names for Compute, in
// the paper's order: Greedy, Greedy*, GeoGreedy, DMM-RRMS, DMM-Greedy,
// eps-Kernel, HS, Sphere — plus DP-2D for two-dimensional databases.
func Algorithms() []string {
	out := make([]string, 0, 9)
	for _, a := range baseline.All(1) {
		out = append(out, a.Name())
	}
	return append(out, "DP-2D")
}

// Compute runs a static k-RMS algorithm once over P and returns at most r
// tuples. See Algorithms for the recognized names. Algorithms defined only
// for k = 1 return an error for larger k. A tuple of P that does not fit
// (see ErrInvalidTuple) fails the call.
func Compute(algorithm string, P []Point, dim, k, r int, seed int64) ([]Point, error) {
	alg, ok := baseline.ByName(algorithm, seed)
	if !ok {
		return nil, fmt.Errorf("rms: unknown algorithm %q (see rms.Algorithms)", algorithm)
	}
	if !alg.SupportsK(k) {
		return nil, fmt.Errorf("rms: algorithm %q does not support k = %d", algorithm, k)
	}
	if err := checkTuples(P, dim, "P"); err != nil {
		return nil, err
	}
	return fromGeoms(alg.Compute(toGeoms(P), dim, k, r)), nil
}

// MaxRegretRatio estimates mrr_k(Q) over P with a sampled utility test set
// (the paper's evaluation methodology; the estimate is a lower bound that
// converges from below as samples grows). A tuple of P or Q that does not
// fit (see ErrInvalidTuple) fails the call.
func MaxRegretRatio(P, Q []Point, dim, k, samples int, seed int64) (float64, error) {
	if err := checkTuples(P, dim, "P"); err != nil {
		return 0, err
	}
	if err := checkTuples(Q, dim, "Q"); err != nil {
		return 0, err
	}
	ev := regret.NewEvaluator(toGeoms(P), dim, k, samples, seed)
	return ev.MRR(toGeoms(Q)), nil
}

// ExactMaxRegretRatio computes the exact mrr_1(Q) over P by linear
// programming (k = 1 only). A tuple of P or Q that does not fit a
// dim-attribute database (see ErrInvalidTuple) fails the call.
func ExactMaxRegretRatio(P, Q []Point, dim int) (float64, error) {
	if err := checkTuples(P, dim, "P"); err != nil {
		return 0, err
	}
	if err := checkTuples(Q, dim, "Q"); err != nil {
		return 0, err
	}
	return regret.ExactMRR1(toGeoms(P), toGeoms(Q))
}

// Skyline returns the Pareto-optimal tuples of P (larger is better on
// every attribute), ordered by ID. Every k-RMS answer is a subset of it. A
// tuple of P that does not fit a dim-attribute database (see
// ErrInvalidTuple) fails the call.
func Skyline(P []Point, dim int) ([]Point, error) {
	if err := checkTuples(P, dim, "P"); err != nil {
		return nil, err
	}
	out := fromGeoms(skyline.Compute(toGeoms(P)))
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
