// Streaming (non-blocking) snapshot capture.
//
// Snapshot() copies the whole engine state in one call, which its callers
// historically ran under their writer lock — an O(state) stop-the-world
// pause that grows with the database and shows up as a p99/max latency
// cliff whenever a checkpoint fires. The session API here splits the
// capture into an O(utilities + arena-clone) ARM step plus bounded chunks,
// so a durability layer can interleave writer batches between chunks and
// still obtain a snapshot bit-identical to what Snapshot() would have
// returned at the arm point:
//
//	sess := e.StartSnapshot()       // under the writer lock: pin
//	for !e.SnapshotChunk(1024) {}   // under the writer lock, between batches
//	snap := e.FinishSnapshot()      // OFF the writer lock: sort + assemble
//
// Correctness rests on two pins. The TUPLE side is the kd-tree's epoch MVCC:
// StartSnapshot captures a View, whose visibleAt(epoch) node filter yields
// exactly the arm-point database regardless of later mutations. The UTILITY
// side is a copy-on-first-write overlay: while a session is armed, the first
// mutation that would touch a utility's state (insert-phase admission or
// delete-phase repair) first deep-copies that utility's pre-image into its
// shard's overlay map. SnapshotChunk then reads the
// overlay when present and the live state otherwise — a live state not in
// the overlay is untouched since the arm, so both reads observe the
// arm-point value. Workers only ever touch their own shard's overlay, so
// the hooks add no synchronization to the parallel phase.
//
// All three entry points and every mutation must be serialized by the
// engine's single-writer contract (in the serving stack: the store's writer
// lock) — only FinishSnapshot and AbortSnapshot's result assembly run off
// that lock. At most one session can be armed at a time.
package topk

import (
	"sort"

	"fdrms/internal/kdtree"
)

// snapCapture is the deep-copied arm-point maintenance state of one
// utility. Phi is in map-iteration order until FinishSnapshot sorts it.
type snapCapture struct {
	phi  []PhiEntry
	topk []int // runner-up buffer ids, buffer order
}

// rawUtilState pairs a captured state with its utility id.
type rawUtilState struct {
	uid int
	cap snapCapture
}

// snapSession is the engine's armed streaming capture, if any.
type snapSession struct {
	armed bool
	uids  []int          // utilities live at arm, unsorted
	next  int            // first uids index not yet captured
	raw   []rawUtilState // captured states, unsorted
	view  *kdtree.View   // tuple index pinned at the arm epoch
	out   *EngineSnapshot
}

// captureState deep-copies one utility's maintenance state.
func captureState(st *uState) snapCapture {
	c := snapCapture{
		phi:  make([]PhiEntry, 0, len(st.phi)),
		topk: make([]int, len(st.topk)),
	}
	//fdrms:orderinvariant pid keys are unique and the entries are sorted by PointID in FinishSnapshot before the snapshot is observable
	for pid, score := range st.phi {
		c.phi = append(c.phi, PhiEntry{PointID: pid, Score: score})
	}
	for i, r := range st.topk {
		c.topk[i] = r.Point.ID
	}
	return c
}

// snapTouch preserves uid's pre-image before its first mutation of an armed
// session. Idempotent per (session, utility); called only on the goroutine
// that owns sh for the current phase.
func (sh *shard) snapTouch(uid int, st *uState) {
	if _, done := sh.overlay[uid]; done {
		return
	}
	sh.overlay[uid] = captureState(st)
}

// SnapshotSession captures an immutable handle on the tuple side of an
// armed session: the epoch-pinned view backing the final point set.
// (Utility captures accumulate inside the engine; the handle exists so
// callers can read the pinned epoch.)
type SnapshotSession struct {
	Epoch uint64
}

// StartSnapshot arms a streaming capture of the current state: counters and
// the tuple index are pinned immediately (a page-table copy, see
// kdtree.Tree.View), utility states lazily via the copy-on-first-write
// overlay. Must be called by the engine's single writer; panics if a
// session is already armed.
func (e *Engine) StartSnapshot() SnapshotSession {
	if e.snap.armed {
		panic("topk: StartSnapshot with a session already armed")
	}
	e.snap.view = e.tree.View()
	e.snap.out = &EngineSnapshot{
		Dim:           e.dim,
		K:             e.k,
		Eps:           e.eps,
		InsertOps:     e.InsertOps,
		DeleteOps:     e.DeleteOps,
		AffectedTotal: e.AffectedTotal,
		Requeries:     e.Requeries,
	}
	e.snap.uids = e.snap.uids[:0]
	for si := range e.shards {
		sh := &e.shards[si]
		//fdrms:orderinvariant collects live utility ids only; the captured states are sorted by id in FinishSnapshot before the snapshot is observable
		for uid := range sh.slots {
			e.snap.uids = append(e.snap.uids, uid)
		}
		if sh.overlay == nil {
			sh.overlay = make(map[int]snapCapture)
		}
	}
	e.snap.next = 0
	e.snap.raw = e.snap.raw[:0]
	e.snap.armed = true
	return SnapshotSession{Epoch: e.snap.view.Epoch()}
}

// SnapshotChunk captures up to n more utilities and reports whether the
// capture is complete. Must be called by the engine's single writer (i.e.
// between batches); a bounded n bounds the writer pause per call. Once the
// last utility is captured the session disarms — later mutations stop
// paying the overlay copy — and FinishSnapshot may run off the writer lock.
func (e *Engine) SnapshotChunk(n int) bool {
	if !e.snap.armed {
		panic("topk: SnapshotChunk without an armed session")
	}
	end := e.snap.next + n
	if end > len(e.snap.uids) {
		end = len(e.snap.uids)
	}
	for _, uid := range e.snap.uids[e.snap.next:end] {
		sh := &e.shards[e.shardFor(uid)]
		if c, ok := sh.overlay[uid]; ok {
			e.snap.raw = append(e.snap.raw, rawUtilState{uid: uid, cap: c})
			continue
		}
		// Not in the overlay ⇒ untouched since the arm: the live state IS
		// the arm-point state.
		e.snap.raw = append(e.snap.raw, rawUtilState{uid: uid, cap: captureState(sh.state(uid))})
	}
	e.snap.next = end
	if end < len(e.snap.uids) {
		return false
	}
	e.disarm()
	return true
}

// FinishSnapshot assembles the captured session into a snapshot
// bit-identical to what Snapshot() would have returned at the arm point.
// Safe to call WITHOUT writer synchronization — every input is already
// immutable (the pinned view's point set, the deep-copied states) — so the
// O(state log state) sorting runs off the writer lock. Panics unless the
// capture completed (SnapshotChunk returned true).
func (e *Engine) FinishSnapshot() *EngineSnapshot {
	if e.snap.out == nil || e.snap.armed {
		panic("topk: FinishSnapshot before the capture completed")
	}
	s := e.snap.out
	s.Points = e.snap.view.Points()
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].ID < s.Points[j].ID })
	raw := e.snap.raw
	sort.Slice(raw, func(i, j int) bool { return raw[i].uid < raw[j].uid })
	s.Utilities = make([]UtilityState, len(raw))
	for i := range raw {
		phi := raw[i].cap.phi
		sort.Slice(phi, func(a, b int) bool { return phi[a].PointID < phi[b].PointID })
		s.Utilities[i] = UtilityState{ID: raw[i].uid, Phi: phi, TopK: raw[i].cap.topk}
	}
	e.snap.out = nil
	e.snap.raw = nil // captured slices are handed to the snapshot
	e.snap.view = nil
	e.snap.uids = e.snap.uids[:0]
	return s
}

// AbortSnapshot discards an in-flight session (armed or captured-but-not-
// finished). Must be called by the engine's single writer. No-op without a
// session.
func (e *Engine) AbortSnapshot() {
	if e.snap.armed {
		e.disarm()
	}
	e.snap.out = nil
	e.snap.raw = nil
	e.snap.view = nil
	e.snap.uids = e.snap.uids[:0]
}

// disarm stops overlay capture and drops the pre-images.
func (e *Engine) disarm() {
	e.snap.armed = false
	for si := range e.shards {
		clear(e.shards[si].overlay)
	}
}
