// Package topk maintains the ε-approximate top-k results Φ_{k,ε}(u, P_t) of
// many utility vectors over a fully-dynamic database — the dual-tree scheme
// of Section III-C of the FD-RMS paper.
//
// The tuple index (a k-d tree, package kdtree) answers top-k and threshold
// queries on the current database; the utility index (a cone tree, package
// conetree) finds which utilities an inserted tuple can affect. For each
// utility the engine stores the exact top-k list and the approximate member
// set, and uses the fast paths described in the paper:
//
//   - an inserted tuple scoring below (1-ε)·ω_k is pruned inside the cone
//     tree and costs nothing for that utility;
//   - one scoring between the threshold and ω_k joins Φ without a requery
//     (ω_k is unchanged);
//   - one scoring above ω_k shifts the exact top-k, which is repaired
//     incrementally inside a runner-up buffer (the exact live top-L,
//     L up to 2k+8, see uState); the deletion of a top-k member promotes a
//     buffered runner-up, an exhausted buffer is rebuilt from Φ while it
//     still holds k members (every tuple scoring at least the threshold is
//     a member, so none outside Φ can qualify), and only an underfull Φ
//     forces a fresh index query.
//
// Per-utility maintenance is embarrassingly parallel, so the engine
// partitions utility state into shards (several per available CPU by
// default — shards are the load-balancing unit of the worker pool, see
// DefaultShards), each owning contiguous blocks of utility IDs with its own
// slice-backed state storage and its own fragment of the inverted
// membership index. The
// batch entry point ApplyBatch fans the Φ maintenance of each operation out
// to the shards and merges their change lists deterministically (see
// batch.go); Insert and Delete are single-element batches.
//
// Every mutation returns the resulting membership changes, which FD-RMS
// Algorithm 3 translates into dynamic set cover operations: the member sets
// of this engine ARE the sets S(p) of the paper's set system Σ = (U, S).
package topk

import (
	"math"
	"runtime"
	"sort"

	"fdrms/internal/conetree"
	"fdrms/internal/geom"
	"fdrms/internal/kdtree"
)

// Utility is one identified utility vector.
type Utility struct {
	ID int
	U  geom.Vector
}

// Change records one membership transition of the set system: tuple PointID
// joined (Added) or left Φ_{k,ε}(u) for utility UtilityID.
type Change struct {
	UtilityID int
	PointID   int
	Added     bool
}

// uState is the maintained per-utility state. States live by value inside
// their shard's slice, which is fixed once the engine is built.
//
// topk is a RUNNER-UP BUFFER: the exact top-L of the live database under
// (score descending, point ID ascending), with k <= L <= maxTopK() while
// at least that many members exist. The first k entries are the exact
// top-k; the tail entries are insurance, so the deletion of a top-k member
// usually promotes a buffered runner-up instead of recomputing — the
// recompute (from Φ, or from the tuple index when Φ is underfull) runs
// only when deletions exhaust the buffer, amortizing one scan over up to
// maxTopK()-k+1 top-k deletions. Two invariants keep promotions sound:
// every buffer entry is a member of Φ (so the delete path, which visits
// exactly the utilities whose Φ contains the tuple, never leaves a dead
// tuple buffered), and every non-buffered live tuple ranks below the
// buffer minimum (pairwise order is static, so this survives deletions).
type uState struct {
	u    geom.Vector
	topk []kdtree.Result // exact top-L prefix of the live ranking
	phi  map[int]float64 // member id -> score (Φ_{k,ε})
}

// shard owns the state of a contiguous-block partition of the utility IDs.
// During the parallel phase of a batch, each worker touches exactly one
// shard, so no field here needs locking — including the worker scratch,
// which persists across batches so steady-state maintenance does not
// allocate.
type shard struct {
	states []uState      // slice-backed storage, indexed by slot
	slots  map[int]int   // utility id -> slot in states
	sets   map[int][]int // pid -> sorted uids (this shard's part of S(p))

	qs      kdtree.QueryScratch // per-shard tuple-index query scratch
	pending posHeap             // delete-worker replay heap

	// overlay preserves pre-image state for an armed streaming snapshot
	// (see snapstream.go): the first mutation of a utility after
	// StartSnapshot captures its state here, so SnapshotChunk can emit the
	// arm-point value no matter how far the writer has since advanced.
	// Nil or empty when no snapshot session is armed.
	overlay map[int]snapCapture
}

func (sh *shard) state(uid int) *uState {
	if slot, ok := sh.slots[uid]; ok {
		return &sh.states[slot]
	}
	return nil
}

// put stores st under uid (replacing an earlier state of the same id).
func (sh *shard) put(uid int, st uState) {
	if slot, ok := sh.slots[uid]; ok {
		sh.states[slot] = st
		return
	}
	sh.slots[uid] = len(sh.states)
	sh.states = append(sh.states, st)
}

func (sh *shard) addToSet(pid, uid int) {
	s := sh.sets[pid]
	i := sort.SearchInts(s, uid)
	if i < len(s) && s[i] == uid {
		return
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = uid
	sh.sets[pid] = s
}

func (sh *shard) removeFromSet(pid, uid int) {
	s := sh.sets[pid]
	i := sort.SearchInts(s, uid)
	if i >= len(s) || s[i] != uid {
		return
	}
	s = append(s[:i], s[i+1:]...)
	if len(s) == 0 {
		delete(sh.sets, pid)
	} else {
		sh.sets[pid] = s
	}
}

// Engine maintains Φ_{k,ε} for a set of utilities over a dynamic database.
type Engine struct {
	k   int
	eps float64
	dim int

	tree *kdtree.Tree
	ui   *conetree.Tree

	shards     []shard
	shardBlock int // utilities per contiguous id block
	numUtils   int

	// pool is the persistent per-shard worker fleet of the batched update
	// path (see pool.go): started lazily by the first parallel phase, torn
	// down by Close.
	pool pool

	// Per-phase scratch, reused across operations so steady-state batches
	// (and the single-op wrappers, which are one-element batches) allocate
	// only for genuine state growth and the emitted change groups. Guarded
	// by the engine's single-writer contract.
	scratch struct {
		insRun     []insOp      // current insert run
		delRun     []Op         // current delete run
		pendingIns map[int]bool // ids inserted by the current insert run
		pendingDel map[int]bool // ids deleted by the current delete run
		affected   [][]int      // per-position cone-tree candidate buffers
		repl       [1]insOp     // single-op run of a replacing insert
		tasks      [][]insTask
		dtasks     [][]delTask
		didx       []map[int]int // per-shard uid->task-slot of the current delete run
		runPos     map[int]int
		results    []shardResult
		cursors    []int
		groupOffs  []int               // per-position change-group boundaries
		mergeWin   []int               // loser-tree build scratch (winner tree)
		mergeLoser []int               // loser-tree internal nodes
		qs         kdtree.QueryScratch // sequential-path query scratch
	}

	// clock, when set, timestamps the batch phases for the profiling report
	// (see SetPhaseClock).
	clock func() int64

	// snap is the armed streaming-snapshot session, if any (snapstream.go).
	snap snapSession

	// Counters for the ablation experiments and the serving telemetry.
	Counters
}

// NewEngine indexes the initial database and computes Φ_{k,ε} for every
// utility, sharding the utility state across the available CPUs. k must be
// >= 1 and eps in [0, 1).
func NewEngine(dim, k int, eps float64, points []geom.Point, utilities []Utility) *Engine {
	return NewEngineShards(dim, k, eps, points, utilities, DefaultShards())
}

// DefaultShards returns the shard count NewEngine uses: FOUR contiguous id
// blocks per available CPU (4 × GOMAXPROCS, so at least four).
// Over-partitioning matters because shards are the unit of load balancing,
// not of parallelism: the worker pool (pool.go) hands whole shards to
// whichever worker is free, so with exactly one shard per CPU a clustered
// workload — all of a phase's tasks landing in one utility-id block —
// degenerates to single-core throughput. At ~4 blocks per CPU the
// largest-first dispatch keeps every worker busy until the phase tail while
// per-shard fixed costs stay negligible. Every answer is independent of the
// shard count; only ApplyBatch parallelism changes.
func DefaultShards() int { return 4 * runtime.GOMAXPROCS(0) }

// NewEngineShards is NewEngine with an explicit shard count (tests force
// cross-shard parallelism regardless of the host; servers can pin it).
func NewEngineShards(dim, k int, eps float64, points []geom.Point, utilities []Utility, nshards int) *Engine {
	if nshards < 1 {
		nshards = 1
	}
	e := &Engine{
		k:      k,
		eps:    eps,
		dim:    dim,
		tree:   kdtree.New(dim, points),
		shards: make([]shard, nshards),
	}
	maxID := 0
	for _, ut := range utilities {
		if ut.ID > maxID {
			maxID = ut.ID
		}
	}
	// Contiguous blocks: the initial IDs 0..maxID split into nshards ranges.
	e.shardBlock = (maxID + nshards) / nshards
	if e.shardBlock < 1 {
		e.shardBlock = 1
	}
	for i := range e.shards {
		e.shards[i] = shard{slots: make(map[int]int), sets: make(map[int][]int)}
	}
	items := make([]conetree.Item, 0, len(utilities))
	for _, ut := range utilities {
		st := e.freshState(ut.U)
		sh := &e.shards[e.shardFor(ut.ID)]
		if sh.state(ut.ID) == nil {
			e.numUtils++
		}
		sh.put(ut.ID, st)
		//fdrms:orderinvariant each pid is visited once and addToSet does a sorted insert into pid's own disjoint list; no cross-pid state exists
		for pid := range st.phi {
			sh.addToSet(pid, ut.ID)
		}
		items = append(items, conetree.Item{ID: ut.ID, U: ut.U, Threshold: e.thresholdOf(st.topk)})
	}
	e.ui = conetree.New(dim, items)
	return e
}

// shardFor maps a utility id to its owning shard: contiguous blocks of
// shardBlock ids, wrapping round-robin beyond the initial range.
func (e *Engine) shardFor(uid int) int {
	s := (uid / e.shardBlock) % len(e.shards)
	if s < 0 {
		s += len(e.shards)
	}
	return s
}

func (e *Engine) stateOf(uid int) *uState {
	return e.shards[e.shardFor(uid)].state(uid)
}

// maxTopK returns the runner-up buffer capacity L_max = 2k+8.
func (e *Engine) maxTopK() int { return 2*e.k + 8 }

// freshState queries the tuple index from scratch for one utility.
func (e *Engine) freshState(u geom.Vector) uState {
	st := uState{u: u, phi: make(map[int]float64)}
	qs := &e.scratch.qs
	res := e.tree.TopKInto(u, e.maxTopK(), qs)
	st.topk = append(make([]kdtree.Result, 0, len(res)), res...)
	tau := e.thresholdOf(st.topk)
	for _, r := range e.tree.AtLeastInto(u, tau, qs) {
		st.phi[r.Point.ID] = r.Score
	}
	st.topk = clampTail(st.topk, e.k, tau) // buffer ⊆ Φ
	return st
}

// thresholdOf computes (1-ε)·ω_k from a top-k (or longer runner-up) list;
// with fewer than k live tuples every tuple is a top-k member, so the
// threshold is -Inf.
func (e *Engine) thresholdOf(topk []kdtree.Result) float64 {
	if len(topk) < e.k {
		return math.Inf(-1)
	}
	return (1 - e.eps) * topk[e.k-1].Score
}

// clampTail drops runner-up entries scoring below tau, never shortening
// the exact top-k prefix (prefix scores are >= ω_k >= any valid tau).
// It restores the buffer-⊆-Φ invariant after index refills, whose tail can
// reach below the membership threshold.
func clampTail(topk []kdtree.Result, k int, tau float64) []kdtree.Result {
	n := len(topk)
	for n > k && topk[n-1].Score < tau {
		n--
	}
	return topk[:n]
}

func (e *Engine) threshold(st *uState) float64 { return e.thresholdOf(st.topk) }

// K returns the rank depth k.
func (e *Engine) K() int { return e.k }

// Epsilon returns the approximation factor ε.
func (e *Engine) Epsilon() float64 { return e.eps }

// NumShards returns the number of utility-state shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// Len returns the number of live tuples.
func (e *Engine) Len() int { return e.tree.Len() }

// NumUtilities returns the number of maintained utilities.
func (e *Engine) NumUtilities() int { return e.numUtils }

// Contains reports whether tuple id is live.
func (e *Engine) Contains(id int) bool { return e.tree.Contains(id) }

// PointByID returns the live tuple with the given id.
func (e *Engine) PointByID(id int) (geom.Point, bool) { return e.tree.PointByID(id) }

// TreeView captures an immutable epoch-pinned snapshot of the tuple index
// (see kdtree.Tree.View) — the read surface of the MVCC serving layer.
// Like every mutating entry point, it must be called by the engine's single
// writer (or synchronized with it); the returned view is then lock-free and
// safe for any number of concurrent readers.
func (e *Engine) TreeView() *kdtree.View { return e.tree.View() }

// Points returns all live tuples.
func (e *Engine) Points() []geom.Point { return e.tree.Points() }

// Members returns Φ_{k,ε}(u) for the utility as a set of point ids.
// The returned map is live engine state: callers must not mutate it.
func (e *Engine) Members(uid int) map[int]float64 {
	if st := e.stateOf(uid); st != nil {
		return st.phi
	}
	return nil
}

// SetOf returns S(p), the ids of utilities whose approximate top-k contains
// the tuple, in ascending order. The slice is freshly allocated at exactly
// the set size; each shard's fragment is already sorted, so the final sort
// runs only when the concatenation actually interleaves (with one shard —
// or id blocks that happen to stack in order — it never does).
func (e *Engine) SetOf(pid int) []int {
	total := 0
	for i := range e.shards {
		total += len(e.shards[i].sets[pid])
	}
	if total == 0 {
		return nil
	}
	out := make([]int, 0, total)
	sorted := true
	for i := range e.shards {
		frag := e.shards[i].sets[pid]
		if len(frag) == 0 {
			continue
		}
		if len(out) > 0 && frag[0] < out[len(out)-1] {
			sorted = false
		}
		out = append(out, frag...)
	}
	if !sorted {
		sort.Ints(out)
	}
	return out
}

// KthScore returns ω_k(u, P_t) for the utility; ok is false when the
// database holds fewer than k tuples.
func (e *Engine) KthScore(uid int) (float64, bool) {
	st := e.stateOf(uid)
	if st == nil || len(st.topk) < e.k {
		return 0, false
	}
	return st.topk[e.k-1].Score, true
}

// TopK returns the maintained exact top-k list of the utility (the prefix
// of the runner-up buffer).
func (e *Engine) TopK(uid int) []kdtree.Result {
	st := e.stateOf(uid)
	if st == nil {
		return nil
	}
	if len(st.topk) > e.k {
		return st.topk[:e.k:e.k]
	}
	return st.topk
}

// VisitedOnInsert reports how many utilities the cone tree would evaluate
// exactly for an insertion of p (ablation instrumentation).
func (e *Engine) VisitedOnInsert(p geom.Point) int { return e.ui.Visited(p) }

// Insert adds tuple p and returns the membership changes across all
// utilities, ordered by utility then point id. Inserting an existing id
// replaces the old tuple.
func (e *Engine) Insert(p geom.Point) []Change {
	var out []Change
	e.ApplyBatchFunc([]Op{InsertOp(p)}, func(_ Op, ch []Change) { out = ch })
	return out
}

// Delete removes the tuple with the given id and returns the membership
// changes, ordered by utility then point id. Deleting a missing id is a
// no-op.
func (e *Engine) Delete(id int) []Change {
	var out []Change
	e.ApplyBatchFunc([]Op{DeleteOp(id)}, func(_ Op, ch []Change) { out = ch })
	return out
}

// topKFromPhi rebuilds the runner-up buffer from the membership map alone —
// valid whenever |Φ| >= k, because every tuple scoring at least the
// threshold is a member, so no outside tuple can beat a member and the
// best min(|Φ|, maxTopK()) members ARE the live top-L. The result is
// ordered by (score descending, point ID ascending) and independent of map
// iteration order; buf (typically the old buffer, reused) backs the
// output. Point data is resolved through the tuple index at the given
// epoch, which inside a delete run still knows members that later
// operations tombstone.
func (e *Engine) topKFromPhi(st *uState, asOf uint64, buf []kdtree.Result) []kdtree.Result {
	out := buf[:0]
	max := e.maxTopK()
	//fdrms:orderinvariant top-k accumulation under the total order (score desc, id asc): the kept set is the best max elements of the candidate set, and the skip-when-full test only drops candidates strictly worse than the current kth — independent of visit order (see doc above)
	for pid, score := range st.phi {
		if len(out) == max {
			last := out[len(out)-1]
			if score < last.Score || (score == last.Score && pid > last.Point.ID) {
				continue
			}
		}
		p, ok := e.tree.PointByIDAt(pid, asOf)
		if !ok {
			// Unreachable: members are visible at their replay epoch.
			continue
		}
		out = insertSorted(out, kdtree.Result{Point: p, Score: score}, max)
	}
	return out
}

// insertSorted places r into a score-descending top-k list, truncating to k.
func insertSorted(topk []kdtree.Result, r kdtree.Result, k int) []kdtree.Result {
	i := sort.Search(len(topk), func(i int) bool {
		if topk[i].Score != r.Score {
			return topk[i].Score < r.Score
		}
		return topk[i].Point.ID > r.Point.ID
	})
	topk = append(topk, kdtree.Result{})
	copy(topk[i+1:], topk[i:])
	topk[i] = r
	if len(topk) > k {
		topk = topk[:k]
	}
	return topk
}

func indexOf(topk []kdtree.Result, id int) int {
	for i, r := range topk {
		if r.Point.ID == id {
			return i
		}
	}
	return -1
}
