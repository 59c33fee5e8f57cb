// Checkpoint snapshot of the full FD-RMS maintenance state.
//
// FD-RMS state is path-dependent at two layers — the length of each
// utility's runner-up buffer and the stable set cover both depend on the
// exact operation history (Φ itself is a pure function of the utility and
// the live tuples) — so a restartable store cannot rebuild "equivalent"
// state from the live tuples: it must capture the state that exists. A
// Snapshot holds the path-dependent parts (the runner-up buffers, the cover
// assignment φ, m, and the persisted counters) plus Φ with its scores, and
// re-derives the rest (tuple index, cone tree, inverted index,
// covers/levels/buckets, and the utility vectors, which come from the
// configured seed). Restore therefore yields a structure
// that is bit-identical to the captured one: same Result, same Stats, same
// covers — and, because every derived structure is answer-neutral, the same
// behaviour on every subsequent update.
//
// EncodeSnapshot/DecodeSnapshot give the snapshot a fixed little-endian
// binary form (framing and CRC live in package wal's checkpoint files).
package core

import (
	"fmt"
	"sort"

	"fdrms/internal/geom"
	"fdrms/internal/setcover"
	"fdrms/internal/topk"
	"fdrms/internal/wal"
)

// AssignEntry is one element of the persisted cover assignment φ: universe
// element (utility id) Elem is covered by the set of tuple Set.
type AssignEntry struct {
	Elem int
	Set  int
}

// Snapshot is the complete persistent state of an FDRMS structure.
type Snapshot struct {
	Cfg Config
	Dim int
	M   int // current universe size m

	Engine *topk.EngineSnapshot

	Assign        []AssignEntry // φ, ascending Elem
	Takeovers     int
	Reassignments int
}

// Snapshot captures the current state. The capture is a pure in-memory copy
// (no queries, no I/O): O(n·d) for the points plus O(Σ|Φ|) for the
// utility states — cheap enough that a durable store can take it while
// holding its write lock and do the encoding and disk writes outside it.
func (f *FDRMS) Snapshot() *Snapshot {
	s := &Snapshot{
		Cfg:           f.cfg,
		Dim:           f.dim,
		M:             f.m,
		Engine:        f.engine.Snapshot(),
		Takeovers:     f.cover.Takeovers,
		Reassignments: f.cover.Reassignments,
	}
	assign := f.cover.Assignment()
	s.Assign = make([]AssignEntry, 0, len(assign))
	//fdrms:orderinvariant elem keys are unique and the entries are sorted by Elem on the line after the loop, before anything observes them
	for e, set := range assign {
		s.Assign = append(s.Assign, AssignEntry{Elem: e, Set: set})
	}
	sort.Slice(s.Assign, func(i, j int) bool { return s.Assign[i].Elem < s.Assign[j].Elem })
	return s
}

// Restore rebuilds an FDRMS structure from a snapshot. The utility vectors
// are re-derived from Cfg.Seed, the set system from the engine's Φ sets, and
// the solution installed verbatim — see the package comment for why the
// result is bit-identical to the captured structure. shards overrides the
// engine's shard count when > 0 (it never affects any answer); otherwise the
// snapshot's configured value (or the CPU count) applies.
func Restore(s *Snapshot, shards int) (*FDRMS, error) {
	if err := s.Cfg.validate(s.Dim); err != nil {
		return nil, fmt.Errorf("core: restoring snapshot: %w", err)
	}
	if s.Engine == nil {
		return nil, fmt.Errorf("core: snapshot has no engine state")
	}
	if s.M < 0 || s.M > s.Cfg.M {
		return nil, fmt.Errorf("core: snapshot m = %d outside [0, %d]", s.M, s.Cfg.M)
	}
	if s.Engine.Dim != s.Dim || s.Engine.K != s.Cfg.K || s.Engine.Eps != s.Cfg.Eps {
		return nil, fmt.Errorf("core: engine snapshot (dim %d, k %d, eps %v) disagrees with config (dim %d, k %d, eps %v)",
			s.Engine.Dim, s.Engine.K, s.Engine.Eps, s.Dim, s.Cfg.K, s.Cfg.Eps)
	}
	if shards <= 0 {
		shards = s.Cfg.Shards
	}
	// The utility sample is a pure function of the config (Algorithm 2,
	// Line 1), so vectors are re-derived rather than persisted.
	vecs := geom.BasisThenRandom(s.Dim, s.Cfg.M, s.Cfg.Seed)
	utilities := make([]topk.Utility, s.Cfg.M)
	for i, u := range vecs {
		utilities[i] = topk.Utility{ID: i, U: u}
	}
	engine, err := topk.RestoreEngine(s.Engine, utilities, shards)
	if err != nil {
		return nil, fmt.Errorf("core: restoring engine: %w", err)
	}

	f := &FDRMS{cfg: s.Cfg, dim: s.Dim, engine: engine, m: s.M}
	// Load the set system — one set per live tuple, memberships the
	// transpose of the snapshot's Φ lists — through the solver's bulk path
	// (the universe is still empty, so no covering state exists to update).
	// The transpose walks utilities in ascending id order, so each member
	// list comes out sorted without re-sorting, and one arena backs them all.
	f.cover = setcover.NewSolver()
	total := 0
	for i := range s.Engine.Utilities {
		total += len(s.Engine.Utilities[i].Phi)
	}
	degree := make(map[int]int, len(s.Engine.Points))
	for i := range s.Engine.Utilities {
		for _, pe := range s.Engine.Utilities[i].Phi {
			degree[pe.PointID]++
		}
	}
	arena := make([]int, 0, total)
	members := make(map[int][]int, len(degree))
	//fdrms:orderinvariant only the per-pid windows' OFFSETS within the shared backing array vary with this order; each window's contents are filled in ascending-utility order below and offsets are not observable
	for pid, n := range degree {
		members[pid] = arena[len(arena) : len(arena) : len(arena)+n]
		arena = arena[:len(arena)+n]
	}
	for i := range s.Engine.Utilities {
		us := &s.Engine.Utilities[i]
		for _, pe := range us.Phi {
			members[pe.PointID] = append(members[pe.PointID], us.ID)
		}
	}
	for _, p := range s.Engine.Points {
		f.cover.LoadSet(p.ID, members[p.ID])
	}
	assign := make(map[int]int, len(s.Assign))
	elems := make([]int, s.M)
	for i := range elems {
		elems[i] = i
	}
	for _, a := range s.Assign {
		if _, dup := assign[a.Elem]; dup {
			return nil, fmt.Errorf("core: duplicate assignment of element %d", a.Elem)
		}
		assign[a.Elem] = a.Set
	}
	if err := f.cover.RestoreSolution(elems, assign); err != nil {
		return nil, fmt.Errorf("core: restoring cover: %w", err)
	}
	f.cover.Takeovers = s.Takeovers
	f.cover.Reassignments = s.Reassignments
	return f, nil
}

const snapVersion = 1

// EncodeSnapshot appends the binary form of s to buf.
func EncodeSnapshot(buf []byte, s *Snapshot) []byte {
	buf = wal.AppendU32(buf, snapVersion)
	buf = wal.AppendI64(buf, int64(s.Cfg.K))
	buf = wal.AppendI64(buf, int64(s.Cfg.R))
	buf = wal.AppendF64(buf, s.Cfg.Eps)
	buf = wal.AppendI64(buf, int64(s.Cfg.M))
	buf = wal.AppendI64(buf, s.Cfg.Seed)
	buf = wal.AppendI64(buf, int64(s.Cfg.Shards))
	buf = wal.AppendI64(buf, int64(s.Dim))
	buf = wal.AppendI64(buf, int64(s.M))
	buf = wal.AppendI64(buf, int64(s.Takeovers))
	buf = wal.AppendI64(buf, int64(s.Reassignments))

	e := s.Engine
	buf = wal.AppendI64(buf, int64(e.InsertOps))
	buf = wal.AppendI64(buf, int64(e.DeleteOps))
	buf = wal.AppendI64(buf, int64(e.AffectedTotal))
	buf = wal.AppendI64(buf, int64(e.Requeries))
	buf = wal.AppendU32(buf, uint32(len(e.Points)))
	for _, p := range e.Points {
		buf = wal.AppendI64(buf, int64(p.ID))
		for _, c := range p.Coords {
			buf = wal.AppendF64(buf, c)
		}
	}
	buf = wal.AppendU32(buf, uint32(len(e.Utilities)))
	for _, us := range e.Utilities {
		buf = wal.AppendI64(buf, int64(us.ID))
		buf = wal.AppendU32(buf, uint32(len(us.Phi)))
		for _, pe := range us.Phi {
			buf = wal.AppendI64(buf, int64(pe.PointID))
			buf = wal.AppendF64(buf, pe.Score)
		}
		buf = wal.AppendU32(buf, uint32(len(us.TopK)))
		for _, pid := range us.TopK {
			buf = wal.AppendI64(buf, int64(pid))
		}
	}
	buf = wal.AppendU32(buf, uint32(len(s.Assign)))
	for _, a := range s.Assign {
		buf = wal.AppendI64(buf, int64(a.Elem))
		buf = wal.AppendI64(buf, int64(a.Set))
	}
	return buf
}

// DecodeSnapshot parses the binary form produced by EncodeSnapshot. It
// validates structure (counts against the byte budget) but not semantics;
// Restore performs the semantic checks.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	d := wal.NewDec(payload)
	if v := d.U32(); d.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	s := &Snapshot{Engine: &topk.EngineSnapshot{}}
	s.Cfg.K = int(d.I64())
	s.Cfg.R = int(d.I64())
	s.Cfg.Eps = d.F64()
	s.Cfg.M = int(d.I64())
	s.Cfg.Seed = d.I64()
	s.Cfg.Shards = int(d.I64())
	s.Dim = int(d.I64())
	s.M = int(d.I64())
	s.Takeovers = int(d.I64())
	s.Reassignments = int(d.I64())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if s.Dim < 1 || s.Dim > 1<<16 {
		return nil, fmt.Errorf("core: snapshot dimension %d out of range", s.Dim)
	}

	e := s.Engine
	e.Dim, e.K, e.Eps = s.Dim, s.Cfg.K, s.Cfg.Eps
	e.InsertOps = int(d.I64())
	e.DeleteOps = int(d.I64())
	e.AffectedTotal = int(d.I64())
	e.Requeries = int(d.I64())
	np := d.Count(8 + 8*s.Dim)
	if d.Err() != nil {
		return nil, d.Err()
	}
	e.Points = make([]geom.Point, np)
	// One flat backing array for every coordinate vector: recovery decodes
	// the whole database, so per-point slice allocations are a measurable
	// slice of time-to-recover.
	flat := make([]float64, np*s.Dim)
	for i := range e.Points {
		e.Points[i].ID = int(d.I64())
		coords := flat[i*s.Dim : (i+1)*s.Dim : (i+1)*s.Dim]
		for j := range coords {
			coords[j] = d.F64()
		}
		e.Points[i].Coords = coords
	}
	nu := d.Count(8 + 4 + 4)
	if d.Err() != nil {
		return nil, d.Err()
	}
	e.Utilities = make([]topk.UtilityState, nu)
	for i := range e.Utilities {
		us := &e.Utilities[i]
		us.ID = int(d.I64())
		nphi := d.Count(16)
		if d.Err() != nil {
			return nil, d.Err()
		}
		us.Phi = make([]topk.PhiEntry, nphi)
		for j := range us.Phi {
			us.Phi[j].PointID = int(d.I64())
			us.Phi[j].Score = d.F64()
		}
		ntop := d.Count(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		us.TopK = make([]int, ntop)
		for j := range us.TopK {
			us.TopK[j] = int(d.I64())
		}
	}
	na := d.Count(16)
	if d.Err() != nil {
		return nil, d.Err()
	}
	s.Assign = make([]AssignEntry, na)
	for i := range s.Assign {
		s.Assign[i].Elem = int(d.I64())
		s.Assign[i].Set = int(d.I64())
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("core: snapshot has %d trailing bytes", d.Remaining())
	}
	return s, nil
}
