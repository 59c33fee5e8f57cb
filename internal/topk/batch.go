// Batched, shard-parallel update path of the engine.
//
// ApplyBatch segments an operation sequence into maximal runs of pure
// insertions (distinct, not-yet-live ids) and pure deletions (distinct live
// ids); each run executes its per-utility Φ maintenance in ONE parallel
// phase across the utility shards, and every worker replays its utilities'
// operations in batch order against shard-local state, so the final Φ, the
// change lists, and every counter match the sequential path exactly.
//
// Insert runs: the cone tree is probed once per tuple against the
// thresholds at run start — a superset of each operation's exact affected
// set, because thresholds only rise while inserting — and stale candidates
// are discarded by an exact threshold re-check inside the worker.
//
// Delete runs: the whole run is tombstoned up front inside a tuple-index
// retain window (epoch-versioned tombstones, see package kdtree), and each
// shard's task list is the union of the inverted index entries S(id) over
// the run's ids at run start. That union is exactly the set of utilities
// any replay can touch: deleting a tuple outside Φ(u) changes neither
// ω_k(u) nor the membership of u (the exact top-k is a subset of Φ), so a
// utility's state first changes at the first run operation whose tuple is
// in its current Φ — which the inverted index knows before the run starts.
// Tuples admitted into Φ(u) by earlier operations of the same run and
// deleted again later are handled inside the worker, which scans the whole
// run in op order against its own Φ and issues requeries at each
// operation's epoch, observing exactly the database state the sequential
// path would.
//
// The tuple index is mutated only between parallel phases; workers issue
// read-only (as-of-epoch) queries against it. Cone-tree threshold repairs
// are deferred to the end of each phase and applied once per touched
// utility, which both keeps the workers lock-free and collapses up to |run|
// path repairs into one.
//
// Steady-state allocation discipline: run segmentation, task lists, worker
// change buffers, replay heaps, and tuple-index query scratch all live in
// the engine (or its shards) and are reused across batches; each shard
// worker owns a persistent kdtree.QueryScratch, so requeries are
// allocation-free once warmed up. The only per-run allocation is the
// emitted change groups — they are handed to the caller, who may retain
// them indefinitely, so each run carves its groups out of one fresh backing
// slice — plus genuine Φ/buffer growth.
package topk

import (
	"cmp"
	"slices"

	"fdrms/internal/geom"
	"fdrms/internal/kdtree"
)

// Op is one database mutation for ApplyBatch: the insertion of Point when
// Delete is false, or the deletion of tuple ID when Delete is true.
type Op struct {
	Point  geom.Point // tuple to insert (Delete == false)
	ID     int        // tuple to delete (Delete == true)
	Delete bool
}

// InsertOp returns the Op inserting p.
func InsertOp(p geom.Point) Op { return Op{Point: p} }

// DeleteOp returns the Op deleting tuple id.
func DeleteOp(id int) Op { return Op{ID: id, Delete: true} }

// parallelMinTasks is the per-phase task count below which the shard
// fan-out is not worth the goroutine overhead and the work runs inline.
const parallelMinTasks = 32

// taggedChange is a Change tagged with the position of the operation that
// produced it inside the current run.
type taggedChange struct {
	pos int
	ch  Change
}

// shardResult collects one worker's output for a parallel phase. Result
// slots live side by side in one engine-owned slice and are written
// concurrently by different workers, so each slot is padded out to two
// cache lines: without the padding, two workers appending to adjacent
// slots' change lists invalidate each other's cache line on every counter
// bump (false sharing), which profiles as memory stalls precisely on the
// multi-core path this fan-out exists for.
type shardResult struct {
	changes    []taggedChange
	touched    []int // utilities whose threshold changed (dupes allowed)
	processed  int   // exact affected-utility count, summed over operations
	requeries  int   // fresh tuple-index top-k queries issued (delete phases)
	promotions int   // top-k vacancies filled by a buffered runner-up
	busyNanos  int64 // worker wall time this phase (phase profiling only)

	_ [48]byte // pad to 128 bytes: no two slots share a cache line
}

// ApplyBatch applies the operations in order and returns the concatenated
// membership changes. The change order is deterministic: operation order,
// then utility id, then point id. Equivalent to calling Insert/Delete one
// by one, but the per-utility maintenance of consecutive insertions — and,
// symmetrically, of consecutive deletions — is executed in one
// shard-parallel phase per run.
func (e *Engine) ApplyBatch(ops []Op) []Change {
	var out []Change
	e.ApplyBatchFunc(ops, func(_ Op, ch []Change) { out = append(out, ch...) })
	return out
}

// ApplyBatchFunc applies the operations in order, invoking emit once per
// effective operation with that operation's membership changes (sorted by
// utility id, then point id). Deletions of ids that are not live are
// skipped and produce no emit call, mirroring Delete's no-op contract.
// An insertion that replaces a live id emits the changes of the implicit
// deletion followed by those of the insertion, as a single group.
// Emitted change groups are caller-owned and stay valid indefinitely.
func (e *Engine) ApplyBatchFunc(ops []Op, emit func(op Op, changes []Change)) {
	sc := &e.scratch
	if sc.pendingIns == nil {
		sc.pendingIns = make(map[int]bool)
		sc.pendingDel = make(map[int]bool)
	}
	sc.insRun = sc.insRun[:0]
	sc.delRun = sc.delRun[:0]
	clear(sc.pendingIns)
	clear(sc.pendingDel)
	// At most one run is open at any moment: a delete op flushes the insert
	// run before queueing and vice versa, so liveness checks against the
	// tuple index only need to account for the run of their own kind.
	for _, op := range ops {
		if op.Delete {
			e.flushIns(emit)
			if e.tree.Contains(op.ID) && !sc.pendingDel[op.ID] {
				sc.delRun = append(sc.delRun, op)
				sc.pendingDel[op.ID] = true
			}
			continue
		}
		e.flushDel(emit)
		id := op.Point.ID
		if sc.pendingIns[id] {
			// The run already inserts this id; the new op must observe it
			// live and replace it.
			e.flushIns(emit)
		}
		if e.tree.Contains(id) {
			e.flushIns(emit)
			pre := e.deleteLive(id)
			sc.repl[0] = insOp{op: op}
			e.flushInsertRun(sc.repl[:1], func(o Op, ch []Change) {
				emit(o, mergeReplaceChanges(pre, ch))
			})
			sc.repl[0] = insOp{} // don't pin the tuple past the run
			continue
		}
		sc.insRun = append(sc.insRun, insOp{op: op})
		sc.pendingIns[id] = true
	}
	e.flushIns(emit)
	e.flushDel(emit)
}

// mergeReplaceChanges merges the implicit deletion's change group (pre) with
// the insertion's (ch) into one replace group, cancelling entries for any
// (utility, point) pair present in both: the old tuple's removal against the
// new tuple's addition under the same id (net: still a member), and a
// transiently admitted tuple's addition against its eviction (net: never a
// member). Without the cancellation a consumer that replays additions before
// removals — as FD-RMS Algorithm 3 requires for groups whose pairs are
// distinct — would apply the Added as a no-op and then strip the membership
// with the Removed, leaving its set system disagreeing with Φ. A pair in
// both groups always carries opposite signs (removals in pre all name the
// replaced id, additions in ch all name the inserted id), so presence in
// both IS the cancellation condition, and since each group arrives sorted by
// (utility, point) a two-pointer merge needs no maps and no re-sort. The
// output is a fresh slice, as every emitted group must be (caller-owned).
func mergeReplaceChanges(pre, ch []Change) []Change {
	if len(pre) == 0 {
		return ch
	}
	if len(ch) == 0 {
		return pre
	}
	less := func(a, b Change) bool {
		if a.UtilityID != b.UtilityID {
			return a.UtilityID < b.UtilityID
		}
		return a.PointID < b.PointID
	}
	out := make([]Change, 0, len(pre)+len(ch))
	i, j := 0, 0
	for i < len(pre) && j < len(ch) {
		switch {
		case pre[i].UtilityID == ch[j].UtilityID && pre[i].PointID == ch[j].PointID:
			i++ // same pair in both groups: opposite signs cancel
			j++
		case less(pre[i], ch[j]):
			out = append(out, pre[i])
			i++
		default:
			out = append(out, ch[j])
			j++
		}
	}
	out = append(out, pre[i:]...)
	return append(out, ch[j:]...)
}

// flushIns closes the open insert run, if any.
func (e *Engine) flushIns(emit func(op Op, changes []Change)) {
	sc := &e.scratch
	if len(sc.insRun) == 0 {
		return
	}
	e.flushInsertRun(sc.insRun, emit)
	clear(sc.insRun) // drop Point references so deleted tuples can be collected
	sc.insRun = sc.insRun[:0]
	clear(sc.pendingIns)
}

// flushDel closes the open delete run, if any.
func (e *Engine) flushDel(emit func(op Op, changes []Change)) {
	sc := &e.scratch
	if len(sc.delRun) == 0 {
		return
	}
	e.flushDeleteRun(sc.delRun, emit)
	sc.delRun = sc.delRun[:0]
	clear(sc.pendingDel)
}

// insOp is one queued insertion of the current run.
type insOp struct {
	op       Op
	affected []int // cone-tree candidates at run start (exact superset)
}

// insTask is one (operation, utility) pair assigned to a shard worker.
type insTask struct {
	pos int // index into the run
	uid int
}

// delTask is one utility assigned to a delete-phase worker, with the run
// positions whose tuples are in its Φ at run start. Positions that become
// relevant mid-run (a requery admits a tuple that a later operation
// deletes) are discovered by the worker itself.
type delTask struct {
	uid  int
	poss []int // ascending
}

// posHeap is a min-heap of run positions pending for one utility, stored in
// a plain slice with inline sift operations (no boxing).
type posHeap []int

// pushPos adds x to the min-heap.
func pushPos(h posHeap, x int) posHeap {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// popPos removes and returns the smallest position.
func popPos(h posHeap) (int, posHeap) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l] < h[m] {
			m = l
		}
		if r < n && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, h
}

// phaseScratch returns the engine's reusable per-phase buffers, emptied.
func (e *Engine) phaseScratch() (tasks [][]insTask, results []shardResult) {
	sc := &e.scratch
	if sc.tasks == nil {
		sc.tasks = make([][]insTask, len(e.shards))
		sc.results = make([]shardResult, len(e.shards))
		sc.cursors = make([]int, len(e.shards))
	}
	for s := range sc.tasks {
		sc.tasks[s] = sc.tasks[s][:0]
		sc.results[s].changes = sc.results[s].changes[:0]
		sc.results[s].touched = sc.results[s].touched[:0]
		sc.results[s].processed = 0
		sc.results[s].requeries = 0
		sc.results[s].promotions = 0
		sc.results[s].busyNanos = 0
		sc.cursors[s] = 0
	}
	return sc.tasks, sc.results
}

// flushInsertRun applies a run of insertions of distinct, previously
// not-live ids and emits each operation's changes in order.
func (e *Engine) flushInsertRun(run []insOp, emit func(op Op, changes []Change)) {
	sc := &e.scratch
	t0 := e.now()
	// Probe the utility index before mutating any state: with insertions
	// only, thresholds are non-decreasing, so candidates computed at run
	// start are a superset of the exact affected set of every operation.
	// Candidate lists live in per-position buffers reused across runs.
	for len(sc.affected) < len(run) {
		sc.affected = append(sc.affected, nil)
	}
	for i := range run {
		sc.affected[i] = e.ui.AffectedInto(run[i].op.Point, sc.affected[i][:0])
		run[i].affected = sc.affected[i]
	}
	t1 := e.now()
	for i := range run {
		e.tree.Insert(run[i].op.Point)
	}
	e.InsertOps += len(run)
	t2 := e.now()

	tasks, results := e.phaseScratch()
	total := 0
	for pos := range run {
		for _, uid := range run[pos].affected {
			s := e.shardFor(uid)
			tasks[s] = append(tasks[s], insTask{pos: pos, uid: uid})
			total++
		}
	}
	t3 := e.now()
	e.runPhase(false, run, nil, 0, nil, total)
	t4 := e.now()
	e.mergePhase(results)
	t5 := e.now()
	e.emitRunGroups(len(run), run, nil, results, emit)
	e.recordPhase(t0, t1, t2, t3, t4, t5, e.now())
}

// flushDeleteRun applies a run of deletions of distinct live ids and emits
// each operation's changes in order. The run is tombstoned up front inside
// a retain window of the tuple index; workers then replay the run per
// utility, requerying at each operation's epoch (see the package comment
// for why the run-start inverted index yields the complete task list).
func (e *Engine) flushDeleteRun(run []Op, emit func(op Op, changes []Change)) {
	t0 := e.now()
	_, results := e.phaseScratch()
	sc := &e.scratch
	if sc.dtasks == nil {
		sc.dtasks = make([][]delTask, len(e.shards))
	}
	if sc.runPos == nil {
		sc.runPos = make(map[int]int, len(run))
	}
	tasks := sc.dtasks
	runPos := sc.runPos
	for s := range tasks {
		tasks[s] = tasks[s][:0]
	}
	clear(runPos)
	for pos, op := range run {
		runPos[op.ID] = pos
	}

	// Group the run positions by affected utility, walking operations in
	// order so each task's position list is ascending. Task order (first
	// appearance over run order × sorted inverted-index entries) is
	// deterministic.
	if sc.didx == nil {
		sc.didx = make([]map[int]int, len(e.shards))
	}
	total := 0
	for s := range e.shards {
		sh := &e.shards[s]
		var idx map[int]int // uid -> slot in tasks[s], for runs touching a utility twice
		for pos, op := range run {
			for _, uid := range sh.sets[op.ID] {
				i := -1
				if idx != nil {
					if j, ok := idx[uid]; ok {
						i = j
					}
				}
				if i < 0 {
					i = len(tasks[s])
					// Grow within capacity where possible so recycled slots
					// keep their poss backing arrays across runs.
					if i < cap(tasks[s]) {
						tasks[s] = tasks[s][:i+1]
						tasks[s][i].uid = uid
						tasks[s][i].poss = tasks[s][i].poss[:0]
					} else {
						tasks[s] = append(tasks[s], delTask{uid: uid})
					}
					if len(run) > 1 {
						if idx == nil {
							if sc.didx[s] == nil {
								sc.didx[s] = make(map[int]int)
							}
							idx = sc.didx[s]
						}
						idx[uid] = i
					}
				}
				tasks[s][i].poss = append(tasks[s][i].poss, pos)
				total++
			}
		}
		if idx != nil {
			clear(idx)
		}
	}

	t1 := e.now()
	base := e.tree.BeginRetain()
	for _, op := range run {
		e.tree.Delete(op.ID)
	}
	e.DeleteOps += len(run)
	t2 := e.now()

	e.runPhase(true, nil, run, base, runPos, total)
	e.tree.EndRetain()
	t3 := e.now()
	e.mergePhase(results)
	t4 := e.now()
	e.emitRunGroups(len(run), nil, run, results, emit)
	// Task grouping is the delete path's candidate discovery; there is no
	// separate build step after tombstoning, so that slot is passed empty.
	e.recordPhase(t0, t1, t2, t2, t3, t4, e.now())
}

// deleteLive removes a live tuple as a single-operation delete run and
// returns the changes sorted by utility then point id.
func (e *Engine) deleteLive(id int) []Change {
	var out []Change
	sc := &e.scratch
	sc.delRun = append(sc.delRun[:0], DeleteOp(id))
	e.flushDeleteRun(sc.delRun, func(_ Op, ch []Change) { out = ch })
	sc.delRun = sc.delRun[:0]
	return out
}

// runPhase executes one run's workers over every shard with a nonempty
// task list — concurrently when the engine is sharded and the phase is
// large enough to amortize the fan-out, inline otherwise. Output is
// identical either way: workers only touch their own shard and result
// slot. Exactly one of insRun/delRun carries the run; the flag-based
// dispatch (rather than callbacks) keeps the inline single-op path free of
// closure allocations. Parallel phases dispatch to the engine's persistent
// per-shard worker pool (see pool.go), started lazily on the first phase
// that goes parallel; after Close every phase runs inline.
func (e *Engine) runPhase(del bool, insRun []insOp, delRun []Op, base uint64, runPos map[int]int, total int) {
	active := 0
	for s := range e.shards {
		if e.phaseTasks(del, s) > 0 {
			active++
		}
	}
	if active <= 1 || total < parallelMinTasks || !e.ensurePool() {
		for s := range e.shards {
			if e.phaseTasks(del, s) > 0 {
				e.phaseWork(del, s, insRun, delRun, base, runPos)
			}
		}
		return
	}
	e.ParallelRuns++
	e.dispatch(phaseJob{del: del, insRun: insRun, delRun: delRun, base: base, runPos: runPos}, active)
}

// phaseTasks returns the task count of shard s for the phase kind.
func (e *Engine) phaseTasks(del bool, s int) int {
	if del {
		return len(e.scratch.dtasks[s])
	}
	return len(e.scratch.tasks[s])
}

// phaseWork runs shard s's worker for the phase kind. The busy-time stamp
// feeds the BusyNs counter; the clock hook must be safe for concurrent calls
// (see SetPhaseClock).
func (e *Engine) phaseWork(del bool, s int, insRun []insOp, delRun []Op, base uint64, runPos map[int]int) {
	sc := &e.scratch
	start := e.now()
	if del {
		e.deleteWorker(&e.shards[s], delRun, base, runPos, sc.dtasks[s], &sc.results[s])
	} else {
		e.insertWorker(&e.shards[s], insRun, sc.tasks[s], &sc.results[s])
	}
	if e.clock != nil {
		sc.results[s].busyNanos = e.now() - start
	}
}

// insertWorker replays the run's insertions for the utilities of one shard,
// in batch order, against shard-local state only.
func (e *Engine) insertWorker(sh *shard, run []insOp, tasks []insTask, res *shardResult) {
	for _, t := range tasks {
		st := sh.state(t.uid)
		p := run[t.pos].op.Point
		s := geom.Score(st.u, p)
		oldThresh := e.threshold(st)
		if s < oldThresh {
			continue // stale candidate: the threshold rose earlier in the run
		}
		if e.snap.armed {
			sh.snapTouch(t.uid, st) // preserve the pre-image for the armed capture
		}
		res.processed++

		// Repair the runner-up buffer incrementally: admit p when it
		// outranks the buffer minimum (or the buffer is below k). The gate
		// must also admit a tuple tying the minimum's score with a smaller
		// id — fresh tuple-index queries break score ties by smaller point
		// ID, and the maintained prefix has to match them bit for bit. A
		// tuple ranking below a shrunken buffer's minimum must NOT be
		// appended: earlier truncations may have dropped tuples that
		// outrank it, and only the relative order of surviving entries is
		// known to be preserved.
		if n := len(st.topk); n < e.k ||
			s > st.topk[n-1].Score ||
			(s == st.topk[n-1].Score && p.ID < st.topk[n-1].Point.ID) {
			st.topk = insertSorted(st.topk, kdtree.Result{Point: p, Score: s}, e.maxTopK())
		}
		newThresh := e.threshold(st)

		// p joins Φ(u): it scored >= oldThresh, and if the threshold rose, p
		// is in the new top-k so it clears the new one as well.
		st.phi.add(p.ID, s)
		sh.addToSet(p.ID, t.uid)
		res.changes = append(res.changes, taggedChange{t.pos, Change{UtilityID: t.uid, PointID: p.ID, Added: true}})

		// A raised threshold can evict old members — from Φ and from the
		// buffer tail, which must stay inside Φ so the delete path (which
		// visits only the utilities whose Φ holds the tuple) never leaves a
		// dead tuple buffered.
		if newThresh > oldThresh {
			// Walk Φ backwards: removeAt fills the hole at i with the last
			// entry, which the walk has already kept.
			for i := st.phi.len() - 1; i >= 0; i-- {
				if m := st.phi.ents[i]; m.Score < newThresh {
					st.phi.removeAt(i)
					sh.removeFromSet(m.PointID, t.uid)
					res.changes = append(res.changes, taggedChange{t.pos, Change{UtilityID: t.uid, PointID: m.PointID, Added: false}})
				}
			}
			st.topk = clampTail(st.topk, e.k, newThresh)
			res.touched = append(res.touched, t.uid)
		}
	}
	// Leave the shard's lane fully sorted by (pos, utility, point) — the
	// emit phase is a pure k-way merge of pre-sorted lanes, so this sort
	// (the only O(n log n) step) runs in parallel inside the workers instead
	// of serialized in the merge. Task order is pos-major but uids within a
	// position follow cone-tree probe order, and eviction entries follow
	// Φ's storage order.
	sortTagged(res.changes)
}

// deleteWorker repairs one shard's utilities after a run of deletions,
// replaying each owned utility's relevant operations in op order. The
// tuple index is only queried — at each operation's epoch — never mutated,
// so workers may run concurrently while later tombstones are already
// recorded. All requeries reuse the shard's persistent query scratch.
//
// The positions pending for one utility start as the task's list (members
// at run start) and grow when a requery admits a tuple that a later run
// operation deletes — an admitted tuple's deletion position is always
// AFTER the admitting one, because the as-of query at an earlier epoch
// cannot see tuples already tombstoned. A min-heap keeps the replay in op
// order without scanning the whole run per utility.
func (e *Engine) deleteWorker(sh *shard, run []Op, base uint64, runPos map[int]int, tasks []delTask, res *shardResult) {
	pending := sh.pending
	for _, t := range tasks {
		st := sh.state(t.uid)
		// An ascending slice already satisfies the min-heap invariant.
		pending = append(pending[:0], t.poss...)
		for len(pending) > 0 {
			var pos int
			pos, pending = popPos(pending)
			op := run[pos]
			if !st.phi.has(op.ID) {
				continue // defensive: queued candidates are always members
			}
			if e.snap.armed {
				sh.snapTouch(t.uid, st) // preserve the pre-image for the armed capture
			}
			res.processed++
			st.phi.remove(op.ID)
			sh.removeFromSet(op.ID, t.uid)
			res.changes = append(res.changes, taggedChange{pos, Change{UtilityID: t.uid, PointID: op.ID, Added: false}})

			if rank := indexOf(st.topk, op.ID); rank >= 0 {
				oldThresh := e.threshold(st)
				st.topk = append(st.topk[:rank], st.topk[rank+1:]...)
				if rank >= e.k {
					continue // a buffered runner-up left: ω_k is untouched
				}
				// A top-k member left: a buffered runner-up takes its place
				// (the buffer is the exact live top-L, so the promotion is
				// exact). Only when deletions have exhausted the buffer is
				// it rebuilt — from Φ while it still holds k members (every
				// tuple scoring >= the threshold is a member, so no outside
				// tuple can beat one), and otherwise from the tuple index,
				// queried as of the epoch right after this operation's
				// tombstone so the replay observes exactly the database
				// state the sequential path would.
				asOf := base + uint64(pos) + 1
				if len(st.topk) < e.k {
					if st.phi.len() >= e.k {
						st.topk = e.topKFromPhi(st, asOf, st.topk[:0])
					} else {
						res.requeries++
						fresh := e.tree.TopKAtInto(st.u, e.maxTopK(), asOf, &sh.qs)
						st.topk = append(st.topk[:0], fresh...)
					}
				} else {
					res.promotions++ // the buffered runner-up filled the vacancy
				}
				newThresh := e.threshold(st)
				if newThresh < oldThresh {
					// ω_k dropped: admit every tuple now clearing the
					// threshold.
					for _, r := range e.tree.AtLeastAtInto(st.u, newThresh, asOf, &sh.qs) {
						if st.phi.add(r.Point.ID, r.Score) {
							sh.addToSet(r.Point.ID, t.uid)
							res.changes = append(res.changes, taggedChange{pos, Change{UtilityID: t.uid, PointID: r.Point.ID, Added: true}})
							if dp, ok := runPos[r.Point.ID]; ok && dp > pos {
								pending = pushPos(pending, dp)
							}
						}
					}
					res.touched = append(res.touched, t.uid)
				}
				// An index rebuild can buffer sub-threshold tuples; clamp
				// so the buffer stays inside Φ (members all score >= the
				// threshold, so none are lost).
				st.topk = clampTail(st.topk, e.k, newThresh)
			}
		}
	}
	sh.pending = pending[:0]
	// Replay order is utility-major; the emit phase merges pre-sorted
	// lanes, so leave this shard's lane fully ordered by (pos, utility,
	// point) — the sort runs inside the parallel phase, off the serial
	// merge path.
	sortTagged(res.changes)
}

// sortTagged orders one worker's change lane by (run position, utility id,
// point id) — the global emission order restricted to this shard. A single
// operation never produces two changes for the same (utility, point) pair,
// so the key is unique within a lane and the order total.
func sortTagged(chs []taggedChange) {
	slices.SortFunc(chs, func(a, b taggedChange) int {
		if c := cmp.Compare(a.pos, b.pos); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ch.UtilityID, b.ch.UtilityID); c != 0 {
			return c
		}
		return cmp.Compare(a.ch.PointID, b.ch.PointID)
	})
}

// emitRunGroups groups the workers' tagged changes per operation and emits
// them in run order. Exactly one of insRun/delRun carries the run's
// operations. Each shard's lane arrives FULLY sorted by (pos, utility id,
// point id) — the workers sort in parallel before handing off — so the
// serial tail of the run is a pure k-way tournament merge: O(total · log
// shards) comparisons through a loser tree instead of the former
// concat-then-sort-per-group, whose O(total · log total) comparisons all
// ran on one core after the fan-out had finished. Cross-lane keys never
// tie (shards own disjoint utility ids), so the merge output is exactly
// the sequential emission order, bit for bit.
//
// All groups are carved out of ONE freshly allocated backing slice —
// emitted groups are caller-owned and may be retained indefinitely, so
// they cannot live in engine scratch — and materialized before the first
// emit call so callbacks see the scratch buffers released.
func (e *Engine) emitRunGroups(n int, insRun []insOp, delRun []Op, results []shardResult, emit func(op Op, changes []Change)) {
	sc := &e.scratch
	total := 0
	for s := range results {
		total += len(results[s].changes)
	}
	e.Changes += total
	var backing []Change
	if total > 0 {
		backing = make([]Change, 0, total)
	}
	offs := sc.groupOffs[:0]
	backing, offs = e.mergeLanes(backing, offs, n, total, results)
	sc.groupOffs = offs
	prev := 0
	for pos := 0; pos < n; pos++ {
		end := offs[pos]
		var group []Change
		if end > prev {
			group = backing[prev:end:end]
		}
		op := Op{}
		if insRun != nil {
			op = insRun[pos].op
		} else {
			op = delRun[pos]
		}
		emit(op, group)
		prev = end
	}
}

// laneLess reports whether lane a's current head precedes lane b's in the
// emission order (pos, utility, point). An exhausted lane — cursor past its
// end, or a padding lane beyond the real shard count — sorts after
// everything; two exhausted lanes tie-break on index so the order stays
// total (live heads never tie across lanes: shards own disjoint uids).
func laneLess(results []shardResult, cursors []int, a, b int) bool {
	ae := a >= len(results) || cursors[a] >= len(results[a].changes)
	be := b >= len(results) || cursors[b] >= len(results[b].changes)
	if ae || be {
		return !ae && be || ae == be && a < b
	}
	x, y := &results[a].changes[cursors[a]], &results[b].changes[cursors[b]]
	if x.pos != y.pos {
		return x.pos < y.pos
	}
	if x.ch.UtilityID != y.ch.UtilityID {
		return x.ch.UtilityID < y.ch.UtilityID
	}
	return x.ch.PointID < y.ch.PointID
}

// mergeLanes drains the shards' sorted change lanes into backing through a
// loser tree, recording each run position's end offset in offs (one entry
// per position, as emitRunGroups expects). The tree holds lane indices:
// leaves are lanes (padded to a power of two with permanently exhausted
// ones), each internal node remembers the LOSER of its match, and the
// overall winner is kept aside — so replacing the winner's head replays
// exactly one root-to-leaf path of log₂(lanes) matches, each against a
// precomputed loser, instead of a full scan per element.
func (e *Engine) mergeLanes(backing []Change, offs []int, n, total int, results []shardResult) ([]Change, []int) {
	sc := &e.scratch
	cursors := sc.cursors
	cur := 0
	if total > 0 && len(results) == 1 {
		// Single lane (one shard, or an inline run): already in emission
		// order, no tournament needed.
		for _, tc := range results[0].changes {
			for cur < tc.pos {
				offs = append(offs, len(backing))
				cur++
			}
			backing = append(backing, tc.ch)
		}
		cursors[0] = len(results[0].changes)
	} else if total > 0 {
		width := 1
		for width < len(results) {
			width <<= 1
		}
		// Build a winner tree bottom-up in win (leaves at win[width:]),
		// then derive each node's loser: of the two child winners, the one
		// that is not the node's winner — arithmetic, since the node's
		// winner IS one of the two.
		win := sc.mergeWin
		if cap(win) < 2*width {
			win = make([]int, 2*width)
		}
		win = win[:2*width]
		loser := sc.mergeLoser
		if cap(loser) < width {
			loser = make([]int, width)
		}
		loser = loser[:width]
		for s := 0; s < width; s++ {
			win[width+s] = s
		}
		for i := width - 1; i >= 1; i-- {
			l, r := win[2*i], win[2*i+1]
			if laneLess(results, cursors, l, r) {
				win[i] = l
			} else {
				win[i] = r
			}
			loser[i] = l + r - win[i]
		}
		sc.mergeWin, sc.mergeLoser = win, loser
		winner := win[1]
		for emitted := 0; emitted < total; emitted++ {
			tc := &results[winner].changes[cursors[winner]]
			for cur < tc.pos {
				offs = append(offs, len(backing))
				cur++
			}
			backing = append(backing, tc.ch)
			cursors[winner]++
			// Replay the winner's path: at each ancestor the new head plays
			// the stored loser; the match loser stays, the winner moves up.
			for t := (width + winner) / 2; t >= 1; t /= 2 {
				if laneLess(results, cursors, loser[t], winner) {
					loser[t], winner = winner, loser[t]
				}
			}
		}
	}
	for cur < n {
		offs = append(offs, len(backing))
		cur++
	}
	return backing, offs
}

// mergePhase folds the workers' counters into the engine and repairs the
// cone tree's thresholds, once per touched utility (the cone tree is not
// safe for concurrent mutation, so this runs after the parallel phase).
func (e *Engine) mergePhase(results []shardResult) {
	var affected, requeries, promotions int
	var busy int64
	for s := range results {
		affected += results[s].processed
		requeries += results[s].requeries
		promotions += results[s].promotions
		busy += results[s].busyNanos
		for _, uid := range results[s].touched {
			tau := e.threshold(e.stateOf(uid))
			if cur, ok := e.ui.Threshold(uid); ok && tau != cur {
				e.ui.SetThreshold(uid, tau)
			}
		}
	}
	e.AffectedTotal += affected
	e.Requeries += requeries
	e.Promotions += promotions
	e.BusyNs += busy
}
