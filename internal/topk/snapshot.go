// Snapshot capture and restore of the per-utility maintenance state.
//
// What must be persisted verbatim and what is derivable was chosen for
// bit-identical recovery:
//
//   - Φ membership is a pure function of (u, P_t): the live tuples scoring
//     at least (1-ε)·ω_k, which TestEngineExactQuick checks against brute
//     force after random insert/delete sequences. It is captured anyway,
//     member ids with their scores as IEEE-754 bits, so restore runs no
//     index query per utility and no question of recomputation order
//     arises.
//   - The runner-up buffer is path-dependent in LENGTH (rebuild timing
//     decides how many runners-up are in stock), and its length decides when
//     the next rebuild or requery happens, so the buffer's id sequence is
//     captured; entry scores are resolved from Φ (the buffer-⊆-Φ invariant).
//   - The tuple index and the cone tree are rebuilt from the live points and
//     utility states: every query answer is tree-shape independent (the
//     deterministic tie-break contract of package kdtree), and cone-tree
//     pruning is a candidate pre-filter that workers re-check exactly, so
//     neither rebuild can change any emitted change or maintained counter.
//   - The inverted index (S(p) fragments) is the transpose of Φ.
//
// Utility VECTORS are not captured here: FD-RMS derives them from the
// configured seed, and the caller supplies them on restore.
package topk

import (
	"fmt"
	"sort"

	"fdrms/internal/conetree"
	"fdrms/internal/geom"
	"fdrms/internal/kdtree"
)

// PhiEntry is one member of a utility's Φ_{k,ε}: a point id and its score
// under the utility, captured bit-exactly.
type PhiEntry struct {
	PointID int
	Score   float64
}

// UtilityState is the captured maintenance state of one utility.
type UtilityState struct {
	ID   int
	Phi  []PhiEntry // ascending PointID
	TopK []int      // runner-up buffer point ids, in buffer order
}

// EngineSnapshot is the complete persistent state of an Engine. Together
// with the utility vectors (derived from the seed by the caller) it rebuilds
// an engine whose every future answer and counter matches the original.
type EngineSnapshot struct {
	Dim int
	K   int
	Eps float64

	Points    []geom.Point   // live tuples, ascending id
	Utilities []UtilityState // ascending utility id

	InsertOps     int
	DeleteOps     int
	AffectedTotal int
	Requeries     int
}

// Snapshot captures the engine state. The returned snapshot shares no
// mutable storage with the engine except the point coordinate slices, which
// the engine never mutates in place — callers that outlive the engine can
// serialize without copying them.
func (e *Engine) Snapshot() *EngineSnapshot {
	s := &EngineSnapshot{
		Dim:           e.dim,
		K:             e.k,
		Eps:           e.eps,
		Points:        e.tree.Points(),
		InsertOps:     e.InsertOps,
		DeleteOps:     e.DeleteOps,
		AffectedTotal: e.AffectedTotal,
		Requeries:     e.Requeries,
	}
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].ID < s.Points[j].ID })
	s.Utilities = make([]UtilityState, 0, e.numUtils)
	for si := range e.shards {
		sh := &e.shards[si]
		//fdrms:orderinvariant collects per-utility states only; s.Utilities is sorted by ID below before the snapshot is returned
		for uid := range sh.slots {
			st := sh.state(uid)
			us := UtilityState{
				ID:   uid,
				Phi:  make([]PhiEntry, 0, len(st.phi)),
				TopK: make([]int, len(st.topk)),
			}
			//fdrms:orderinvariant pid keys are unique and us.Phi is sorted by PointID on the line after the loop
			for pid, score := range st.phi {
				us.Phi = append(us.Phi, PhiEntry{PointID: pid, Score: score})
			}
			sort.Slice(us.Phi, func(i, j int) bool { return us.Phi[i].PointID < us.Phi[j].PointID })
			for i, r := range st.topk {
				us.TopK[i] = r.Point.ID
			}
			s.Utilities = append(s.Utilities, us)
		}
	}
	sort.Slice(s.Utilities, func(i, j int) bool { return s.Utilities[i].ID < s.Utilities[j].ID })
	return s
}

// RestoreEngine rebuilds an engine from a snapshot plus the utility vectors
// (which must cover exactly the snapshot's utility ids). nshards <= 0 picks
// the DefaultShards count; the value never affects any answer.
func RestoreEngine(s *EngineSnapshot, utilities []Utility, nshards int) (*Engine, error) {
	if nshards < 1 {
		nshards = DefaultShards()
	}
	vecs := make(map[int]geom.Vector, len(utilities))
	maxID := 0
	for _, ut := range utilities {
		if _, dup := vecs[ut.ID]; dup {
			return nil, fmt.Errorf("topk: duplicate utility id %d", ut.ID)
		}
		vecs[ut.ID] = ut.U
		if ut.ID > maxID {
			maxID = ut.ID
		}
	}
	if len(vecs) != len(s.Utilities) {
		return nil, fmt.Errorf("topk: snapshot has %d utilities, caller supplied %d vectors", len(s.Utilities), len(vecs))
	}
	// Snapshots are canonical: points and utilities strictly ascending by id.
	// Enforcing that here rejects duplicate ids (which would silently
	// collapse in the tree's id map or double-count numUtils) along with any
	// other hand-mangled ordering.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].ID <= s.Points[i-1].ID {
			return nil, fmt.Errorf("topk: snapshot points not strictly ascending at index %d (id %d after %d)", i, s.Points[i].ID, s.Points[i-1].ID)
		}
	}
	for i := 1; i < len(s.Utilities); i++ {
		if s.Utilities[i].ID <= s.Utilities[i-1].ID {
			return nil, fmt.Errorf("topk: snapshot utilities not strictly ascending at index %d (id %d after %d)", i, s.Utilities[i].ID, s.Utilities[i-1].ID)
		}
	}
	e := &Engine{
		k:      s.K,
		eps:    s.Eps,
		dim:    s.Dim,
		tree:   kdtree.New(s.Dim, s.Points),
		shards: make([]shard, nshards),
		Counters: Counters{
			InsertOps:     s.InsertOps,
			DeleteOps:     s.DeleteOps,
			AffectedTotal: s.AffectedTotal,
			Requeries:     s.Requeries,
		},
	}
	e.shardBlock = (maxID + nshards) / nshards
	if e.shardBlock < 1 {
		e.shardBlock = 1
	}
	for i := range e.shards {
		e.shards[i] = shard{slots: make(map[int]int), sets: make(map[int][]int)}
	}
	items := make([]conetree.Item, 0, len(s.Utilities))
	for _, us := range s.Utilities {
		u, ok := vecs[us.ID]
		if !ok {
			return nil, fmt.Errorf("topk: no vector for snapshot utility %d", us.ID)
		}
		st := uState{u: u, phi: make(map[int]float64, len(us.Phi))}
		for _, pe := range us.Phi {
			st.phi[pe.PointID] = pe.Score
		}
		if len(st.phi) != len(us.Phi) {
			return nil, fmt.Errorf("topk: utility %d: duplicate Φ member", us.ID)
		}
		st.topk = make([]kdtree.Result, len(us.TopK))
		for i, pid := range us.TopK {
			score, member := st.phi[pid]
			if !member {
				return nil, fmt.Errorf("topk: utility %d: buffered tuple %d outside Φ", us.ID, pid)
			}
			p, live := e.tree.PointByID(pid)
			if !live {
				return nil, fmt.Errorf("topk: utility %d: buffered tuple %d is not live", us.ID, pid)
			}
			st.topk[i] = kdtree.Result{Point: p, Score: score}
		}
		sh := &e.shards[e.shardFor(us.ID)]
		sh.put(us.ID, st)
		e.numUtils++
		for _, pe := range us.Phi {
			if !e.tree.Contains(pe.PointID) {
				return nil, fmt.Errorf("topk: utility %d: Φ member %d is not live", us.ID, pe.PointID)
			}
			sh.addToSet(pe.PointID, us.ID)
		}
		items = append(items, conetree.Item{ID: us.ID, U: u, Threshold: e.thresholdOf(st.topk)})
	}
	e.ui = conetree.New(s.Dim, items)
	return e, nil
}
