package topk

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fdrms/internal/dataset"
	"fdrms/internal/geom"
	"fdrms/internal/kdtree"
)

// randomOps builds a mixed operation stream over an engine seeded with pts:
// fresh inserts, deletes of live ids, replacing inserts, and deletes of
// missing ids, tracking liveness so the mix stays meaningful.
func randomOps(rng *rand.Rand, pts []geom.Point, n, d, idBase int) []Op {
	live := make([]int, 0, len(pts)+n)
	for _, p := range pts {
		live = append(live, p.ID)
	}
	next := idBase
	ops := make([]Op, 0, n)
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 5: // fresh insert
			ops = append(ops, InsertOp(randomPoints(rng, 1, d, next)[0]))
			live = append(live, next)
			next++
		case r < 7 && len(live) > 0: // delete a live id
			i := rng.Intn(len(live))
			ops = append(ops, DeleteOp(live[i]))
			live = append(live[:i], live[i+1:]...)
		case r < 9 && len(live) > 0: // replacing insert
			id := live[rng.Intn(len(live))]
			p := randomPoints(rng, 1, d, 0)[0]
			p.ID = id
			ops = append(ops, InsertOp(p))
		default: // delete a missing id
			ops = append(ops, DeleteOp(next+100000))
		}
	}
	return ops
}

type opGroup struct {
	op      Op
	changes []Change
}

func collectGroups(e *Engine, ops []Op, batchSize int) []opGroup {
	var out []opGroup
	for i := 0; i < len(ops); i += batchSize {
		j := i + batchSize
		if j > len(ops) {
			j = len(ops)
		}
		e.ApplyBatchFunc(ops[i:j], func(op Op, ch []Change) {
			out = append(out, opGroup{op, ch})
		})
	}
	return out
}

func membersSnapshot(e *Engine, utils []Utility) map[int][]int {
	out := make(map[int][]int, len(utils))
	for _, ut := range utils {
		var ids []int
		//fdrms:orderinvariant ids are sorted before use
		for pid := range e.Members(ut.ID) {
			ids = append(ids, pid)
		}
		sort.Ints(ids)
		out[ut.ID] = ids
	}
	return out
}

// The batched path must be indistinguishable from the sequential path:
// identical per-operation change groups, identical final membership,
// identical counters — for every batch size, with the parallel fan-out
// active (4 shards).
func TestApplyBatchMatchesSequential(t *testing.T) {
	for _, batchSize := range []int{1, 3, 16, 64, 512} {
		rng := rand.New(rand.NewSource(int64(17 + batchSize)))
		d, k, eps := 4, 2, 0.1
		pts := randomPoints(rng, 150, d, 0)
		utils := randomUtilities(rng, 48, d)
		ops := randomOps(rng, pts, 400, d, 1000)

		batched := NewEngineShards(d, k, eps, pts, utils, 4)
		sequential := NewEngineShards(d, k, eps, pts, utils, 4)

		got := collectGroups(batched, ops, batchSize)
		var want []opGroup
		for _, op := range ops {
			var ch []Change
			if op.Delete {
				if !sequential.Contains(op.ID) {
					continue // missing delete: batched path skips it too
				}
				ch = sequential.Delete(op.ID)
			} else {
				ch = sequential.Insert(op.Point)
			}
			want = append(want, opGroup{op, ch})
		}

		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d emitted groups, want %d", batchSize, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].op, want[i].op) {
				t.Fatalf("batch=%d group %d: op %+v, want %+v", batchSize, i, got[i].op, want[i].op)
			}
			if !reflect.DeepEqual(got[i].changes, want[i].changes) {
				t.Fatalf("batch=%d group %d (%+v): changes\n%v\nwant\n%v", batchSize, i, got[i].op, got[i].changes, want[i].changes)
			}
		}
		if a, b := membersSnapshot(batched, utils), membersSnapshot(sequential, utils); !reflect.DeepEqual(a, b) {
			t.Fatalf("batch=%d: final memberships diverge", batchSize)
		}
		if batched.InsertOps != sequential.InsertOps || batched.DeleteOps != sequential.DeleteOps ||
			batched.AffectedTotal != sequential.AffectedTotal || batched.Requeries != sequential.Requeries {
			t.Fatalf("batch=%d: counters diverge: %+v vs %+v",
				batchSize,
				[4]int{batched.InsertOps, batched.DeleteOps, batched.AffectedTotal, batched.Requeries},
				[4]int{sequential.InsertOps, sequential.DeleteOps, sequential.AffectedTotal, sequential.Requeries})
		}
	}
}

// burstyOps builds an operation stream of alternating insert and delete
// BLOCKS, so ApplyBatch segments long runs of each kind: sliding-window
// style delete bursts (oldest ids first), plus occasional deletes of
// missing ids and repeated deletes inside one block.
func burstyOps(rng *rand.Rand, pts []geom.Point, blocks, blockLen, d, idBase int) []Op {
	live := make([]int, 0, len(pts)+blocks*blockLen)
	for _, p := range pts {
		live = append(live, p.ID)
	}
	next := idBase
	var ops []Op
	for b := 0; b < blocks; b++ {
		if b%2 == 0 {
			for i := 0; i < blockLen; i++ {
				ops = append(ops, InsertOp(randomPoints(rng, 1, d, next)[0]))
				live = append(live, next)
				next++
			}
			continue
		}
		for i := 0; i < blockLen && len(live) > 0; i++ {
			switch rng.Intn(8) {
			case 0: // missing id: skipped by both paths
				ops = append(ops, DeleteOp(next+500000))
			case 1: // duplicate delete within the block
				if len(ops) > 0 && ops[len(ops)-1].Delete {
					ops = append(ops, ops[len(ops)-1])
					continue
				}
				fallthrough
			default: // delete the oldest live id (sliding window)
				ops = append(ops, DeleteOp(live[0]))
				live = live[1:]
			}
		}
	}
	return ops
}

// Delete runs must be bit-identical to the sequential path too: per-op
// change groups, final membership, and counters, across batch sizes that
// split runs at every boundary, with the parallel fan-out active.
func TestApplyBatchDeleteRunsMatchSequential(t *testing.T) {
	for _, batchSize := range []int{1, 2, 5, 16, 64, 512} {
		rng := rand.New(rand.NewSource(int64(101 + batchSize)))
		d, k, eps := 4, 2, 0.1
		pts := randomPoints(rng, 120, d, 0)
		utils := randomUtilities(rng, 48, d)
		ops := burstyOps(rng, pts, 12, 40, d, 1000)

		batched := NewEngineShards(d, k, eps, pts, utils, 4)
		sequential := NewEngineShards(d, k, eps, pts, utils, 4)

		got := collectGroups(batched, ops, batchSize)
		var want []opGroup
		for _, op := range ops {
			var ch []Change
			if op.Delete {
				if !sequential.Contains(op.ID) {
					continue
				}
				ch = sequential.Delete(op.ID)
			} else {
				ch = sequential.Insert(op.Point)
			}
			want = append(want, opGroup{op, ch})
		}

		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d emitted groups, want %d", batchSize, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].op, want[i].op) {
				t.Fatalf("batch=%d group %d: op %+v, want %+v", batchSize, i, got[i].op, want[i].op)
			}
			if !reflect.DeepEqual(got[i].changes, want[i].changes) {
				t.Fatalf("batch=%d group %d (%+v): changes\n%v\nwant\n%v", batchSize, i, got[i].op, got[i].changes, want[i].changes)
			}
		}
		if a, b := membersSnapshot(batched, utils), membersSnapshot(sequential, utils); !reflect.DeepEqual(a, b) {
			t.Fatalf("batch=%d: final memberships diverge", batchSize)
		}
		if batched.InsertOps != sequential.InsertOps || batched.DeleteOps != sequential.DeleteOps ||
			batched.AffectedTotal != sequential.AffectedTotal || batched.Requeries != sequential.Requeries {
			t.Fatalf("batch=%d: counters diverge: %+v vs %+v",
				batchSize,
				[4]int{batched.InsertOps, batched.DeleteOps, batched.AffectedTotal, batched.Requeries},
				[4]int{sequential.InsertOps, sequential.DeleteOps, sequential.AffectedTotal, sequential.Requeries})
		}
	}
}

// A whole-database delete run (drain) followed by a refill run crosses the
// fewer-than-k boundary inside one batch; tie-heavy grid data stresses the
// per-epoch requeries.
func TestApplyBatchDrainRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, k, eps := 3, 2, 0.1
	pts := gridPoints(rng, 60, d, 0, 3)
	utils := gridUtilities(d, 12)
	var ops []Op
	for _, p := range pts {
		ops = append(ops, DeleteOp(p.ID))
	}
	for _, p := range gridPoints(rng, 60, d, 4000, 3) {
		ops = append(ops, InsertOp(p))
	}

	batched := NewEngineShards(d, k, eps, pts, utils, 4)
	sequential := NewEngineShards(d, k, eps, pts, utils, 4)
	got := collectGroups(batched, ops, len(ops)) // one giant batch
	var want []opGroup
	for _, op := range ops {
		if op.Delete {
			want = append(want, opGroup{op, sequential.Delete(op.ID)})
		} else {
			want = append(want, opGroup{op, sequential.Insert(op.Point)})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("drain+refill batch diverges from sequential")
	}
	if a, b := membersSnapshot(batched, utils), membersSnapshot(sequential, utils); !reflect.DeepEqual(a, b) {
		t.Fatal("final memberships diverge")
	}
}

// Φ_{k,ε} is a function of the live point set alone, so any interleaving
// of operations on distinct ids must land every utility on the same
// membership — the property that lets batches reorder work internally.
func TestApplyBatchShuffleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		k := 1 + rng.Intn(3)
		eps := rng.Float64() * 0.15
		pts := randomPoints(rng, 40+rng.Intn(40), d, 0)
		utils := randomUtilities(rng, 4+rng.Intn(8), d)

		// Distinct-id ops: inserts of new ids plus deletes of initial ids.
		var ops []Op
		for i, p := range randomPoints(rng, 25, d, 1000) {
			_ = i
			ops = append(ops, InsertOp(p))
		}
		for _, p := range pts[:10] {
			ops = append(ops, DeleteOp(p.ID))
		}

		a := NewEngineShards(d, k, eps, pts, utils, 3)
		b := NewEngineShards(d, k, eps, pts, utils, 3)
		a.ApplyBatch(ops)
		shuffled := append([]Op(nil), ops...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b.ApplyBatch(shuffled)

		return reflect.DeepEqual(membersSnapshot(a, utils), membersSnapshot(b, utils))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Changes returned by ApplyBatch replay to the same membership as the
// engine reports, and missing deletes emit nothing.
func TestApplyBatchChangeReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d, k, eps := 3, 2, 0.08
	pts := randomPoints(rng, 80, d, 0)
	utils := randomUtilities(rng, 20, d)
	e := NewEngineShards(d, k, eps, pts, utils, 4)

	replayed := make(map[int]map[int]bool)
	for _, ut := range utils {
		m := make(map[int]bool)
		//fdrms:orderinvariant building a set, insertion order immaterial
		for pid := range e.Members(ut.ID) {
			m[pid] = true
		}
		replayed[ut.ID] = m
	}

	ops := randomOps(rng, pts, 300, d, 5000)
	for i := 0; i < len(ops); i += 37 {
		j := i + 37
		if j > len(ops) {
			j = len(ops)
		}
		for _, c := range e.ApplyBatch(ops[i:j]) {
			if c.Added {
				if replayed[c.UtilityID][c.PointID] {
					t.Fatalf("add change for existing member u%d/p%d", c.UtilityID, c.PointID)
				}
				replayed[c.UtilityID][c.PointID] = true
			} else {
				if !replayed[c.UtilityID][c.PointID] {
					t.Fatalf("remove change for non-member u%d/p%d", c.UtilityID, c.PointID)
				}
				delete(replayed[c.UtilityID], c.PointID)
			}
		}
	}
	for _, ut := range utils {
		m := e.Members(ut.ID)
		if len(m) != len(replayed[ut.ID]) {
			t.Fatalf("u%d: replayed %d members, engine has %d", ut.ID, len(replayed[ut.ID]), len(m))
		}
		//fdrms:orderinvariant conjunctive membership check, any order
		for pid := range m {
			if !replayed[ut.ID][pid] {
				t.Fatalf("u%d: replay misses p%d", ut.ID, pid)
			}
		}
	}

	if got := e.ApplyBatch([]Op{DeleteOp(987654), DeleteOp(987655)}); got != nil {
		t.Fatalf("missing deletes produced changes: %v", got)
	}
}

// On clipped AntiCor data every tuple clipped to 1.0 on an axis ties at the
// top of that axis's basis utility, so the basis utilities hold large Φs
// whose runner-up buffers keep the smallest tied ids — the ids a sliding
// window deletes first. A stream of fresh inserts plus deletes of the
// oldest ids therefore drains those buffers again and again, and each
// drain refills the buffer from Φ. After every batch, each utility's Φ,
// its buffer and the emitted changes must equal a 1-shard sequential
// twin's and a brute-force recomputation; batches of 128 run the delete
// fan-out on the worker pool.
func TestApplyBatchTiedTopSlidingDrain(t *testing.T) {
	const n, m, steps, eps = 2000, 24, 384, 0.01
	for _, d := range []int{3, 4} {
		pts := dataset.AntiCor(n+steps, d, int64(d)).Points // point i has id i
		utils := make([]Utility, m)
		scores := make([][]float64, m) // scores[u][id]
		for i, u := range geom.BasisThenRandom(d, m, int64(d)) {
			utils[i] = Utility{ID: i, U: u}
			scores[i] = make([]float64, len(pts))
			for id, p := range pts {
				scores[i][id] = geom.Score(u, p)
			}
		}
		// The premise: basis utility 0 ties more than two buffers' worth
		// of the tuples the window deletes at its top score.
		if tied := bruteRanking(scores[0], pts, 0, n, 1, 0); len(tied) < 24 || tied[23].Point.ID >= steps {
			t.Fatalf("d=%d: basis utility 0 ties %d tuples at its top, too few among the %d oldest", d, len(tied), steps)
		}
		for _, k := range []int{1, 2} {
			for _, batch := range []int{1, 8, 128} {
				checkTiedSlidingDrain(t, pts, utils, scores, n, steps, d, k, batch, eps)
			}
		}
	}
}

// checkTiedSlidingDrain runs one configuration of
// TestApplyBatchTiedTopSlidingDrain: the engine starts on pts[:n], and each
// batch inserts the next batch tuples of pts and deletes the batch oldest
// live ids.
func checkTiedSlidingDrain(t *testing.T, pts []geom.Point, utils []Utility, scores [][]float64, n, steps, d, k, batch int, eps float64) {
	t.Helper()
	batched := NewEngineShards(d, k, eps, pts[:n], utils, 4)
	defer batched.Close()
	sequential := NewEngineShards(d, k, eps, pts[:n], utils, 1)
	defer sequential.Close()
	members := make([]map[int]bool, len(utils)) // Φ replayed from the emitted changes
	for i, ut := range utils {
		members[i] = make(map[int]bool)
		for _, pid := range membersSnapshot(batched, utils[i:i+1])[ut.ID] {
			members[i][pid] = true
		}
	}
	for step := 0; step < steps; step += batch {
		var ops []Op
		for _, p := range pts[n+step : n+step+batch] {
			ops = append(ops, InsertOp(p))
		}
		for id := step; id < step+batch; id++ {
			ops = append(ops, DeleteOp(id))
		}
		got := collectGroups(batched, ops, len(ops))
		var want []opGroup
		for _, op := range ops {
			sequential.ApplyBatchFunc([]Op{op}, func(o Op, ch []Change) { want = append(want, opGroup{o, ch}) })
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("d=%d k=%d batch=%d step %d: change groups diverge from the sequential twin", d, k, batch, step)
		}
		for _, g := range got {
			for _, c := range g.changes {
				if members[c.UtilityID][c.PointID] == c.Added {
					t.Fatalf("d=%d k=%d batch=%d step %d: change %+v does not apply to the replayed Φ", d, k, batch, step, c)
				}
				if c.Added {
					members[c.UtilityID][c.PointID] = true
				} else {
					delete(members[c.UtilityID], c.PointID)
				}
			}
		}
		for i, ut := range utils {
			phi := bruteRanking(scores[i], pts, step+batch, n+step+batch, k, eps)
			for _, e := range []*Engine{batched, sequential} {
				st, got := e.stateOf(ut.ID), e.Members(ut.ID)
				if len(got) != len(phi) || len(members[i]) != len(phi) {
					t.Fatalf("d=%d k=%d batch=%d step %d u%d: |Φ| = %d, replayed %d, brute force %d", d, k, batch, step, ut.ID, len(got), len(members[i]), len(phi))
				}
				for _, r := range phi {
					if s, ok := got[r.Point.ID]; !ok || s != r.Score || !members[i][r.Point.ID] {
						t.Fatalf("d=%d k=%d batch=%d step %d u%d: member %d (score %v) missing or rescored", d, k, batch, step, ut.ID, r.Point.ID, r.Score)
					}
				}
				// The buffer is the top min(L, |Φ|) of Φ for its current
				// length L, which never falls below k.
				if len(st.topk) < min(k, len(phi)) || len(st.topk) > min(e.maxTopK(), len(phi)) ||
					!slices.EqualFunc(st.topk, phi[:len(st.topk)], sameResult) {
					t.Fatalf("d=%d k=%d batch=%d step %d u%d: buffer %v, want a prefix of %v", d, k, batch, step, ut.ID, resultIDs(st.topk), resultIDs(phi[:min(len(phi), e.maxTopK())]))
				}
			}
			if !slices.EqualFunc(batched.stateOf(ut.ID).topk, sequential.stateOf(ut.ID).topk, sameResult) {
				t.Fatalf("d=%d k=%d batch=%d step %d u%d: buffer differs from the sequential twin's", d, k, batch, step, ut.ID)
			}
		}
	}
	if batch == 128 && batched.ParallelRuns == 0 {
		t.Fatalf("d=%d k=%d: no run of 128 went through the worker pool", d, k)
	}
	a, b := batched.Counters, sequential.Counters
	if a.AffectedTotal != b.AffectedTotal || a.Requeries != b.Requeries || a.Promotions != b.Promotions || a.Changes != b.Changes {
		t.Fatalf("d=%d k=%d batch=%d: counters %+v, sequential twin %+v", d, k, batch, a, b)
	}
}

// bruteRanking returns Φ_{k,ε} over the tuples pts[lo:hi] by linear scan
// of their precomputed scores (score[i] belongs to pts[i]), ordered by
// score descending, then id ascending.
func bruteRanking(score []float64, pts []geom.Point, lo, hi, k int, eps float64) []kdtree.Result {
	top := make([]float64, 0, k+1) // the k best scores, descending
	for _, s := range score[lo:hi] {
		if len(top) < k || s > top[k-1] {
			j := len(top)
			for j > 0 && top[j-1] < s {
				j--
			}
			top = slices.Insert(top, j, s)[:min(len(top)+1, k)]
		}
	}
	tau := math.Inf(-1)
	if len(top) == k {
		tau = (1 - eps) * top[k-1]
	}
	var phi []kdtree.Result
	for i := lo; i < hi; i++ {
		if score[i] >= tau {
			phi = append(phi, kdtree.Result{Point: pts[i], Score: score[i]})
		}
	}
	slices.SortFunc(phi, func(a, b kdtree.Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Point.ID, b.Point.ID)
	})
	return phi
}

func sameResult(a, b kdtree.Result) bool { return a.Point.ID == b.Point.ID && a.Score == b.Score }

func resultIDs(rs []kdtree.Result) []int {
	ids := make([]int, len(rs))
	for i, r := range rs {
		ids[i] = r.Point.ID
	}
	return ids
}
