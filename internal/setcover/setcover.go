// Package setcover implements the dynamic set cover algorithm of Section
// III-A of the FD-RMS paper (Algorithm 1), built around the notion of a
// stable set-cover solution.
//
// A solution C assigns every universe element u to exactly one chosen set
// φ(u) containing it; cov(S) is the set of elements assigned to S. Sets in C
// are organized into levels: S sits in level L_j when 2^j <= |cov(S)| <
// 2^{j+1}. Definition 2 calls C stable when
//
//  1. every S in C sits in the level matching |cov(S)|, and
//  2. no set S (chosen or not) could take over 2^{j+1} or more elements
//     currently assigned at level j, i.e. |S ∩ A_j| < 2^{j+1} for all j,
//
// and Theorem 1 shows every stable solution is a (2 + 2·log2 m)
// approximation of the optimal cover. The four update operations of the
// paper — (u,S,−), (u,S,+), (u,U,+), (u,U,−) — are provided as
// RemoveSetMember, AddSetMember, AddElement, and RemoveElement; each runs
// RELEVEL on the affected sets and then STABILIZE, which repeatedly lets a
// violating set take over an entire level's worth of its elements until
// Definition 2 holds again (Lemma 2 bounds this by O(m log m) steps).
//
// Storage layout: external set and element ids are mapped once, at the API
// boundary, to dense int32 indices into two flat record slices; every
// collection a record owns (member list, cover, per-level bucket contents,
// element→set transpose) is a sorted int32 fragment carved from one shared
// slab with per-class freelists (see slab.go). A warmed solver therefore
// runs element moves and cover handoffs with zero allocations — fragments
// recycle through the freelists — and the inner loops stream contiguous
// int32 runs instead of chasing map buckets.
//
// Determinism: the solver is a deterministic function of its operation
// sequence. Every choice point orders candidates by EXTERNAL ids — the
// dirty-queue pops by (level, set id), takeover processing by element id,
// greedy and reassignment tie-breaks by set id — so no answer depends on
// the dense index assignment or any iteration order. (Transient duplicate
// dirty-queue entries can differ between storage layouts, but duplicates
// only ever fail the staleness re-check; they change no state and no
// counter.) The batched update path and its equivalence tests rely on this.
package setcover

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Solver maintains a set system Σ = (U, S) and a stable set-cover solution
// over it. Element and set identifiers are arbitrary ints chosen by the
// caller (utility ids and tuple ids in FD-RMS).
type Solver struct {
	arena slab // shared storage behind every span below

	setIdx  map[int]int32 // external set id -> slot in sets
	elemIdx map[int]int32 // external element id -> slot in elems
	sets    []setRec
	elems   []elemRec
	freeSet []int32 // recycled set slots (DropSetIfEmpty)

	// levels[j] holds the chosen set slots at level j (unordered; membership
	// only — every ordered decision re-sorts by external id).
	levels [][]int32

	nUniverse int
	nOrphans  int // universe elements contained in no set
	nChosen   int // |C|

	// dirty is a min-heap of candidate stability violations ordered by
	// (level, external set id), so STABILIZE processes them in a
	// deterministic order. Duplicate entries are tolerated: a second pop of
	// the same candidate fails the staleness check after the first takeover
	// handled it.
	dirty []dirtyEntry

	// Scratch reused across operations (takeover element lists, greedy
	// rounds), so steady-state stabilization allocates nothing.
	moved   []int32
	touched []int32
	counts  []int32

	// Stats counters for the ablation harness and the serving telemetry.
	Takeovers     int // STABILIZE takeover steps executed
	Reassignments int // element reassignments due to set-member removals
}

// Counters is one reading of the solver's cumulative work counters and its
// slab's allocation traffic: the freelist-hit ratio is SlabReuse/(SlabReuse
// + SlabFresh), utilization is SlabLiveWords/SlabWords.
type Counters struct {
	Takeovers     int // STABILIZE takeover steps executed
	Reassignments int // element reassignments due to set-member removals
	SlabReuse     int // fragment allocations served by a freelist
	SlabFresh     int // fragment allocations carved from the slab tail
	SlabReleases  int // fragments threaded back onto freelists
	SlabLiveWords int // int32 words in fragments currently allocated
	SlabWords     int // int32 words carved from the slab tail (never shrinks)
}

// Counters returns the solver's current counters. Caller must hold the
// solver's single-writer role.
func (sv *Solver) Counters() Counters {
	a := &sv.arena
	return Counters{
		Takeovers:     sv.Takeovers,
		Reassignments: sv.Reassignments,
		SlabReuse:     a.reuse,
		SlabFresh:     a.fresh,
		SlabReleases:  a.releases,
		SlabLiveWords: a.live,
		SlabWords:     len(a.data),
	}
}

// setRec is the per-set state. cover and level are meaningful while chosen;
// buckets[j] is S ∩ A_j — the members of this set whose assigned set
// currently sits at level j — giving the stability condition in O(1) from
// its length and the takeover contents without any search.
type setRec struct {
	id       int
	members  span   // element slots, ascending
	cover    span   // element slots, ascending (chosen only)
	buckets  []span // level j -> S ∩ A_j element slots, ascending
	level    int32
	levelPos int32 // position inside levels[level] (chosen only)
	chosen   bool
	live     bool
}

// elemRec is the per-element state. An element with inU set and assign < 0
// is an orphan: contained in no set, tolerated transiently (FD-RMS never
// produces one in a settled state).
type elemRec struct {
	id       int
	contains span  // slots of sets containing the element, ascending
	assign   int32 // chosen-set slot covering it, -1 when unassigned
	inU      bool
}

type dirtyEntry struct {
	level int32
	set   int32 // dense set slot
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	sv := &Solver{
		setIdx:  make(map[int]int32),
		elemIdx: make(map[int]int32),
	}
	sv.arena.init()
	return sv
}

// levelOf returns the level index j with 2^j <= n < 2^{j+1}.
func levelOf(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n)) - 1
}

// --- dense index management --------------------------------------------------

// ensureSet returns the slot of set s, registering it if needed.
func (sv *Solver) ensureSet(s int) int32 {
	if i, ok := sv.setIdx[s]; ok {
		return i
	}
	var i int32
	if n := len(sv.freeSet); n > 0 {
		i = sv.freeSet[n-1]
		sv.freeSet = sv.freeSet[:n-1]
		buckets := sv.sets[i].buckets[:0] // keep the directory storage
		sv.sets[i] = setRec{id: s, buckets: buckets, live: true}
	} else {
		i = int32(len(sv.sets))
		sv.sets = append(sv.sets, setRec{id: s, live: true})
	}
	sv.setIdx[s] = i
	return i
}

// ensureElem returns the slot of element e, creating its record if needed.
// Element records are never recycled (FD-RMS element ids are the bounded
// utility sample).
func (sv *Solver) ensureElem(e int) int32 {
	if i, ok := sv.elemIdx[e]; ok {
		return i
	}
	i := int32(len(sv.elems))
	sv.elems = append(sv.elems, elemRec{id: e, assign: -1})
	sv.elemIdx[e] = i
	return i
}

func (sv *Solver) orphan(ei int32) bool {
	return sv.elems[ei].inU && sv.elems[ei].assign < 0
}

// --- set system bookkeeping -------------------------------------------------

// RegisterSet ensures an (empty) set with the given id exists.
func (sv *Solver) RegisterSet(s int) { sv.ensureSet(s) }

// HasSet reports whether the set id is registered.
func (sv *Solver) HasSet(s int) bool {
	_, ok := sv.setIdx[s]
	return ok
}

// SetSize returns |S| (members inside and outside the universe).
func (sv *Solver) SetSize(s int) int {
	if i, ok := sv.setIdx[s]; ok {
		return int(sv.sets[i].members.n)
	}
	return 0
}

// InUniverse reports whether the element is part of U.
func (sv *Solver) InUniverse(e int) bool {
	if i, ok := sv.elemIdx[e]; ok {
		return sv.elems[i].inU
	}
	return false
}

// UniverseSize returns |U|.
func (sv *Solver) UniverseSize() int { return sv.nUniverse }

// NumSets returns |S|, the number of registered sets.
func (sv *Solver) NumSets() int { return len(sv.setIdx) }

// --- solution accessors -----------------------------------------------------

// Size returns |C|.
func (sv *Solver) Size() int { return sv.nChosen }

// Solution returns the chosen set ids in ascending order. The levels table
// holds exactly the chosen slots, so this is O(|C| log |C|), not a scan of
// every registered set.
func (sv *Solver) Solution() []int {
	out := make([]int, 0, sv.nChosen)
	for _, l := range sv.levels {
		for _, si := range l {
			out = append(out, sv.sets[si].id)
		}
	}
	slices.Sort(out)
	return out
}

// InSolution reports whether set s is chosen.
func (sv *Solver) InSolution(s int) bool {
	if i, ok := sv.setIdx[s]; ok {
		return sv.sets[i].chosen
	}
	return false
}

// CoverSize returns |cov(S)| for a chosen set (0 otherwise).
func (sv *Solver) CoverSize(s int) int {
	if i, ok := sv.setIdx[s]; ok && sv.sets[i].chosen {
		return int(sv.sets[i].cover.n)
	}
	return 0
}

// AssignedSet returns φ(e) for a covered universe element.
func (sv *Solver) AssignedSet(e int) (int, bool) {
	if i, ok := sv.elemIdx[e]; ok && sv.elems[i].assign >= 0 {
		return sv.sets[sv.elems[i].assign].id, true
	}
	return 0, false
}

// Orphans returns the universe elements currently contained in no set.
func (sv *Solver) Orphans() []int {
	out := make([]int, 0, sv.nOrphans)
	for i := range sv.elems {
		if sv.orphan(int32(i)) {
			out = append(out, sv.elems[i].id)
		}
	}
	slices.Sort(out)
	return out
}

// --- the dirty queue --------------------------------------------------------

func (sv *Solver) dirtyLess(a, b dirtyEntry) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	return sv.sets[a.set].id < sv.sets[b.set].id
}

func (sv *Solver) pushDirty(d dirtyEntry) {
	h := append(sv.dirty, d)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !sv.dirtyLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sv.dirty = h
}

func (sv *Solver) popDirty() dirtyEntry {
	h := sv.dirty
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && sv.dirtyLess(h[l], h[m]) {
			m = l
		}
		if r < n && sv.dirtyLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	sv.dirty = h
	return top
}

// --- primitive mutations ----------------------------------------------------

// bucketAddOne places element ei into the (ti, j) bucket, queueing a
// stability check when the bucket crosses the takeover threshold.
func (sv *Solver) bucketAddOne(ti, ei, j int32) {
	t := &sv.sets[ti]
	for int(j) >= len(t.buckets) {
		t.buckets = append(t.buckets, span{})
	}
	b := &t.buckets[j]
	sv.arena.insert(b, ei)
	if int(b.n) >= 1<<(j+1) {
		sv.pushDirty(dirtyEntry{level: j, set: ti})
	}
}

// bucketAdd places element ei (assigned at level j) into the (t, j) bucket
// of every set t containing it, queueing stability checks as sizes grow.
func (sv *Solver) bucketAdd(ei, j int32) {
	for _, ti := range sv.arena.view(sv.elems[ei].contains) {
		sv.bucketAddOne(ti, ei, j)
	}
}

// bucketRemove removes element ei (assigned at level j) from the buckets of
// every set containing it.
func (sv *Solver) bucketRemove(ei, j int32) {
	for _, ti := range sv.arena.view(sv.elems[ei].contains) {
		t := &sv.sets[ti]
		if int(j) < len(t.buckets) {
			sv.arena.remove(&t.buckets[j], ei)
		}
	}
}

// ensureChosen puts the set into C with an empty cover at level 0.
func (sv *Solver) ensureChosen(si int32) {
	t := &sv.sets[si]
	if t.chosen {
		return
	}
	t.chosen = true
	t.cover = span{}
	t.level = 0
	sv.levelAdd(0, si)
	sv.nChosen++
}

func (sv *Solver) levelAdd(j, si int32) {
	for int(j) >= len(sv.levels) {
		sv.levels = append(sv.levels, nil)
	}
	sv.sets[si].levelPos = int32(len(sv.levels[j]))
	sv.levels[j] = append(sv.levels[j], si)
}

// levelRemove swap-removes si from levels[j] in O(1) via the maintained
// position index, repointing the displaced set.
func (sv *Solver) levelRemove(j, si int32) {
	l := sv.levels[j]
	pos := sv.sets[si].levelPos
	last := int32(len(l) - 1)
	l[pos] = l[last]
	sv.sets[l[pos]].levelPos = pos
	sv.levels[j] = l[:last]
}

func (sv *Solver) levelHas(j, si int32) bool {
	if int(j) >= len(sv.levels) {
		return false
	}
	pos := sv.sets[si].levelPos
	return int(pos) < len(sv.levels[j]) && sv.levels[j][pos] == si
}

// assignTo makes φ(e) = s (e must be unassigned), bucketing e at s's
// current level. Callers must RELEVEL s afterwards.
func (sv *Solver) assignTo(ei, si int32) {
	sv.ensureChosen(si)
	sv.elems[ei].assign = si
	sv.arena.insert(&sv.sets[si].cover, ei)
	sv.bucketAdd(ei, sv.sets[si].level)
}

// unassign removes e from its chosen set's cover and from all buckets.
// It returns the former set's slot; callers must RELEVEL it afterwards.
func (sv *Solver) unassign(ei int32) (int32, bool) {
	si := sv.elems[ei].assign
	if si < 0 {
		return 0, false
	}
	sv.elems[ei].assign = -1
	sv.arena.remove(&sv.sets[si].cover, ei)
	sv.bucketRemove(ei, sv.sets[si].level)
	return si, true
}

// relevel implements RELEVEL(S) of Algorithm 1: drop S from C when its
// cover emptied, otherwise move it to the level matching |cov(S)| and
// rebucket every covered element.
func (sv *Solver) relevel(si int32) {
	t := &sv.sets[si]
	if !t.chosen {
		return
	}
	old := t.level
	if t.cover.n == 0 {
		t.chosen = false
		t.level = 0
		sv.levelRemove(old, si)
		sv.nChosen--
		return
	}
	j := int32(levelOf(int(t.cover.n)))
	if j == old {
		return
	}
	sv.levelRemove(old, si)
	sv.levelAdd(j, si)
	t.level = j
	for _, ei := range sv.arena.view(t.cover) {
		sv.bucketRemove(ei, old)
		sv.bucketAdd(ei, j)
	}
}

// chooseSetFor picks the set a newly uncovered element should be assigned
// to: a chosen set containing it with the largest cover (stays closest to
// the existing hierarchy), falling back to any containing set. Ties break on
// smaller external id for determinism.
func (sv *Solver) chooseSetFor(ei int32) (int32, bool) {
	cont := sv.arena.view(sv.elems[ei].contains)
	best := int32(-1)
	bestCov := int32(-1)
	bestID := 0
	for _, ti := range cont {
		t := &sv.sets[ti]
		if !t.chosen {
			continue
		}
		if best < 0 || t.cover.n > bestCov || (t.cover.n == bestCov && t.id < bestID) {
			best, bestCov, bestID = ti, t.cover.n, t.id
		}
	}
	if best >= 0 {
		return best, true
	}
	// No chosen set contains e: open the largest containing set.
	bestSize := int32(-1)
	for _, ti := range cont {
		t := &sv.sets[ti]
		if best < 0 || t.members.n > bestSize || (t.members.n == bestSize && t.id < bestID) {
			best, bestSize, bestID = ti, t.members.n, t.id
		}
	}
	return best, best >= 0
}

// --- the four σ operations ---------------------------------------------------

// AddSetMember applies σ = (e, S, +): element e joins set s. The assignment
// φ is unchanged, but the new membership can violate stability (s may now
// overlap a level too much), so STABILIZE runs.
func (sv *Solver) AddSetMember(s, e int) {
	si := sv.ensureSet(s)
	ei := sv.ensureElem(e)
	if !sv.arena.insert(&sv.sets[si].members, ei) {
		return
	}
	sv.arena.insert(&sv.elems[ei].contains, si)
	if sv.elems[ei].inU {
		if sv.elems[ei].assign < 0 {
			// The element finally became coverable.
			sv.nOrphans--
			sv.assignTo(ei, si)
			sv.relevel(si)
		} else {
			// Only s's bucket grows: the element is already bucketed at its
			// assigned level in every other containing set.
			sv.bucketAddOne(si, ei, sv.sets[sv.elems[ei].assign].level)
		}
	}
	sv.stabilize()
}

// RemoveSetMember applies σ = (e, S, −): element e leaves set s. When e was
// assigned to s it is reassigned to another containing set (Lines 2–5 of
// Algorithm 1), then STABILIZE runs.
func (sv *Solver) RemoveSetMember(s, e int) {
	si, ok := sv.setIdx[s]
	if !ok {
		return
	}
	ei, ok := sv.elemIdx[e]
	if !ok {
		return
	}
	if !sv.arena.remove(&sv.sets[si].members, ei) {
		return
	}
	sv.arena.remove(&sv.elems[ei].contains, si)
	if !sv.elems[ei].inU || sv.elems[ei].assign < 0 {
		return
	}
	j := sv.sets[sv.elems[ei].assign].level
	// Drop e from s's buckets (membership is gone).
	if t := &sv.sets[si]; int(j) < len(t.buckets) {
		sv.arena.remove(&t.buckets[j], ei)
	}
	if sv.elems[ei].assign == si {
		old, _ := sv.unassign(ei)
		if s2, ok := sv.chooseSetFor(ei); ok {
			sv.assignTo(ei, s2)
			sv.relevel(s2)
			sv.Reassignments++
		} else {
			sv.nOrphans++
		}
		sv.relevel(old)
	}
	sv.stabilize()
}

// AddElement applies σ = (e, U, +): e joins the universe and is assigned to
// a containing set.
func (sv *Solver) AddElement(e int) {
	ei := sv.ensureElem(e)
	if sv.elems[ei].inU {
		return
	}
	sv.elems[ei].inU = true
	sv.nUniverse++
	if si, ok := sv.chooseSetFor(ei); ok {
		sv.assignTo(ei, si)
		sv.relevel(si)
	} else {
		sv.nOrphans++
	}
	sv.stabilize()
}

// RemoveElement applies σ = (e, U, −): e leaves the universe; its former
// chosen set shrinks (and leaves C when emptied).
func (sv *Solver) RemoveElement(e int) {
	ei, ok := sv.elemIdx[e]
	if !ok || !sv.elems[ei].inU {
		return
	}
	sv.elems[ei].inU = false
	sv.nUniverse--
	if sv.elems[ei].assign < 0 {
		sv.nOrphans--
		return
	}
	old, _ := sv.unassign(ei)
	sv.relevel(old)
	sv.stabilize()
}

// DropSetIfEmpty unregisters a set that no longer has members (used after a
// tuple deletion finished removing every membership of S(p)). The slot and
// its storage are recycled.
func (sv *Solver) DropSetIfEmpty(s int) bool {
	si, ok := sv.setIdx[s]
	if !ok || sv.sets[si].members.n != 0 {
		return false
	}
	t := &sv.sets[si]
	// No members ⇒ no cover (cov ⊆ S) and all buckets empty (bucket ⊆ S);
	// empties released their storage already, so only the directory resets.
	t.buckets = t.buckets[:0]
	t.id = -1
	t.live = false
	delete(sv.setIdx, s)
	sv.freeSet = append(sv.freeSet, si)
	return true
}

// ResetUniverse replaces the universe wholesale and rebuilds the solution
// with GREEDY. FD-RMS initialization uses this while binary-searching the
// sample size m (Algorithm 2, Lines 3–14).
func (sv *Solver) ResetUniverse(elems []int) {
	for i := range sv.elems {
		sv.elems[i].inU = false
	}
	sv.nUniverse = 0
	for _, e := range elems {
		ei := sv.ensureElem(e)
		if !sv.elems[ei].inU {
			sv.elems[ei].inU = true
			sv.nUniverse++
		}
	}
	sv.Greedy()
}

// --- STABILIZE ---------------------------------------------------------------

// stabilize restores Definition 2: while some set s could take over all
// elements of a level j with |s ∩ A_j| >= 2^{j+1}, it does (Lines 28–32 of
// Algorithm 1), moving those elements into cov(s) and releveling every
// touched set. Each takeover strictly raises the level of the moved
// elements, so the loop terminates (Lemma 2).
//
// Takeover order picks which of multiple valid stable solutions we land on;
// selecting the smallest (level, set id) violation each round — and moving
// its elements in ascending element id — makes the whole solver a
// deterministic function of its operation sequence, which the batched
// update path (and its equivalence tests) relies on.
func (sv *Solver) stabilize() {
	for len(sv.dirty) > 0 {
		d := sv.popDirty()
		t := &sv.sets[d.set]
		var b span
		if int(d.level) < len(t.buckets) {
			b = t.buckets[d.level]
		}
		if int(b.n) < 1<<(d.level+1) {
			continue // stale entry
		}
		sv.Takeovers++
		// Take over every element of S ∩ A_j, in ascending element id.
		moved := append(sv.moved[:0], sv.arena.view(b)...)
		slices.SortFunc(moved, func(x, y int32) int {
			return cmp.Compare(sv.elems[x].id, sv.elems[y].id)
		})
		touched := sv.touched[:0]
		for _, ei := range moved {
			if sv.elems[ei].assign == d.set {
				continue
			}
			old, _ := sv.unassign(ei)
			touched = append(touched, old)
			sv.assignTo(ei, d.set)
		}
		sv.moved = moved[:0]
		sv.relevel(d.set)
		slices.Sort(touched)
		prev := int32(-1)
		for _, si := range touched {
			if si == prev {
				continue
			}
			prev = si
			sv.relevel(si)
		}
		sv.touched = touched[:0]
	}
}

// --- GREEDY -------------------------------------------------------------------

// Greedy discards the current solution and rebuilds it with the classic
// greedy algorithm (Lines 13–19 of Algorithm 1), assigning each chosen set
// to the level matching its cover size. Lemma 1 guarantees the result is
// stable. Orphan elements (contained in no set) are skipped.
func (sv *Solver) Greedy() {
	// Discard the current solution, releasing cover and bucket storage.
	for i := range sv.sets {
		t := &sv.sets[i]
		if !t.live {
			continue
		}
		sv.arena.freeSpan(&t.cover)
		for j := range t.buckets {
			sv.arena.freeSpan(&t.buckets[j])
		}
		t.buckets = t.buckets[:0]
		t.chosen = false
		t.level = 0
	}
	for i := range sv.elems {
		sv.elems[i].assign = -1
	}
	for j := range sv.levels {
		sv.levels[j] = sv.levels[j][:0]
	}
	sv.nChosen = 0
	sv.nOrphans = 0
	sv.dirty = sv.dirty[:0]

	// Uncovered-count per set, restricted to the universe.
	counts := sv.counts
	if cap(counts) < len(sv.sets) {
		counts = make([]int32, len(sv.sets))
	}
	counts = counts[:len(sv.sets)]
	clear(counts)
	// cand holds exactly the set slots with a nonzero uncovered count and
	// shrinks as rounds zero them out, so each greedy round scans the live
	// candidates rather than every registered slot (at bench scale one slot
	// exists per tuple while only the Φ-transpose of the m-element universe
	// can cover anything).
	cand := sv.touched[:0]
	remaining := 0
	for i := range sv.elems {
		el := &sv.elems[i]
		if !el.inU {
			continue
		}
		if el.contains.n == 0 {
			sv.nOrphans++
			continue
		}
		remaining++
		for _, ti := range sv.arena.view(el.contains) {
			if counts[ti] == 0 {
				cand = append(cand, ti)
			}
			counts[ti]++
		}
	}

	for remaining > 0 {
		best := int32(-1)
		bestCount := int32(0)
		bestID := 0
		w := 0
		for _, i := range cand {
			n := counts[i]
			if n == 0 {
				continue // exhausted in an earlier round; drop from cand
			}
			cand[w] = i
			w++
			if n > bestCount || (n == bestCount && sv.sets[i].id < bestID) {
				best, bestCount, bestID = i, n, sv.sets[i].id
			}
		}
		cand = cand[:w]
		if best < 0 {
			break // only orphans remain (unreachable: orphans were excluded)
		}
		covered := sv.moved[:0]
		for _, ei := range sv.arena.view(sv.sets[best].members) {
			el := &sv.elems[ei]
			if el.inU && el.assign < 0 && el.contains.n > 0 {
				covered = append(covered, ei)
			}
		}
		slices.SortFunc(covered, func(x, y int32) int {
			return cmp.Compare(sv.elems[x].id, sv.elems[y].id)
		})
		t := &sv.sets[best]
		t.chosen = true
		sv.nChosen++
		for _, ei := range covered {
			sv.elems[ei].assign = best
			sv.arena.insert(&t.cover, ei)
			remaining--
			for _, ti := range sv.arena.view(sv.elems[ei].contains) {
				if counts[ti] > 0 {
					counts[ti]--
				}
			}
		}
		j := int32(levelOf(int(t.cover.n)))
		t.level = j
		sv.levelAdd(j, best)
		sv.moved = covered[:0]
	}
	sv.counts = counts[:0]
	sv.touched = cand[:0]

	// Rebuild buckets from the fresh assignment.
	for i := range sv.elems {
		if si := sv.elems[i].assign; si >= 0 {
			sv.bucketAdd(int32(i), sv.sets[si].level)
		}
	}
	// Greedy solutions are stable (Lemma 1), but bucketAdd may have queued
	// candidates; clear them through the standard check for safety.
	sv.stabilize()
}

// --- invariant checking --------------------------------------------------------

// CheckStable verifies Definition 2 plus the structural invariants of the
// solution and returns a descriptive error on the first violation. Intended
// for tests and debugging; it runs in O(total membership) time.
func (sv *Solver) CheckStable() error {
	// Every non-orphan universe element is assigned to a containing chosen set.
	orphans := 0
	for i := range sv.elems {
		el := &sv.elems[i]
		if !el.inU {
			if el.assign >= 0 {
				return fmt.Errorf("element %d assigned but outside the universe", el.id)
			}
			continue
		}
		if el.assign < 0 {
			if el.contains.n != 0 {
				return fmt.Errorf("universe element %d unassigned", el.id)
			}
			orphans++
			continue
		}
		si := el.assign
		if !sv.arena.has(sv.sets[si].members, int32(i)) {
			return fmt.Errorf("element %d assigned to set %d that does not contain it", el.id, sv.sets[si].id)
		}
		if !sv.arena.has(sv.sets[si].cover, int32(i)) {
			return fmt.Errorf("element %d missing from cov(%d)", el.id, sv.sets[si].id)
		}
	}
	if orphans != sv.nOrphans {
		return fmt.Errorf("orphan count drift: counted %d, maintained %d", orphans, sv.nOrphans)
	}
	// Covers partition the assigned elements.
	chosen := 0
	for i := range sv.sets {
		t := &sv.sets[i]
		if !t.live || !t.chosen {
			continue
		}
		chosen++
		c := int(t.cover.n)
		if c == 0 {
			return fmt.Errorf("chosen set %d has empty cover", t.id)
		}
		for _, ei := range sv.arena.view(t.cover) {
			if sv.elems[ei].assign != int32(i) {
				return fmt.Errorf("cov(%d) holds %d but φ(%d) = %d", t.id, sv.elems[ei].id, sv.elems[ei].id, sv.elems[ei].assign)
			}
		}
		// Condition (1): level matches cover size.
		j := t.level
		if c < 1<<j || c >= 1<<(j+1) {
			return fmt.Errorf("set %d at level %d has |cov| = %d", t.id, j, c)
		}
		if !sv.levelHas(j, int32(i)) {
			return fmt.Errorf("set %d missing from levels[%d]", t.id, j)
		}
	}
	if chosen != sv.nChosen {
		return fmt.Errorf("chosen count drift: counted %d, maintained %d", chosen, sv.nChosen)
	}
	// Condition (2): no set can take over a level; cross-check the
	// maintained buckets against a fresh per-level count of S ∩ A_j.
	for i := range sv.sets {
		t := &sv.sets[i]
		if !t.live {
			continue
		}
		var perLevel [64]int
		maxJ := len(t.buckets) - 1 // also sweep maintained buckets beyond maxJ for stale entries
		for _, ei := range sv.arena.view(t.members) {
			if si := sv.elems[ei].assign; si >= 0 {
				j := int(sv.sets[si].level)
				perLevel[j]++
				if j > maxJ {
					maxJ = j
				}
			}
		}
		for j := 0; j <= maxJ; j++ {
			n := perLevel[j]
			if n >= 1<<(j+1) {
				return fmt.Errorf("instability: |S_%d ∩ A_%d| = %d >= %d", t.id, j, n, 1<<(j+1))
			}
			got := 0
			if j < len(t.buckets) {
				got = int(t.buckets[j].n)
			}
			if got != n {
				return fmt.Errorf("bucket drift for set %d level %d: bucket %d, actual %d", t.id, j, got, n)
			}
		}
	}
	return nil
}
