package kdtree

import (
	"math/rand"
	"testing"

	"fdrms/internal/geom"
)

// As-of reads inside a retain window must reproduce every intermediate
// database state of a delete run exactly, for all query kinds, even when
// the run tombstones more than half of the tree (which defers a rebuild to
// EndRetain).
func TestAsOfReadsDuringDeleteRun(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 3
	n := 40
	pts := gridPointsKD(rng, n, d, 0, 3) // grid: ties stress the ID tie-break too
	tr := New(d, pts)

	// Delete 30 of 40 points in one retained run, snapshotting the live set
	// before each tombstone.
	perm := rng.Perm(n)[:30]
	base := tr.BeginRetain()
	if base != tr.Epoch() {
		t.Fatal("BeginRetain must return the current epoch")
	}
	live := make(map[int]geom.Point, n)
	for _, p := range pts {
		live[p.ID] = p
	}
	snapshots := make([]map[int]geom.Point, 0, len(perm)+1)
	snap := func() map[int]geom.Point {
		c := make(map[int]geom.Point, len(live))
		for id, p := range live {
			c[id] = p
		}
		return c
	}
	snapshots = append(snapshots, snap()) // state at epoch base
	for _, i := range perm {
		if !tr.Delete(pts[i].ID) {
			t.Fatalf("Delete(%d) reported missing", pts[i].ID)
		}
		delete(live, pts[i].ID)
		snapshots = append(snapshots, snap())
	}
	if got, want := tr.Epoch(), base+uint64(len(perm)); got != want {
		t.Fatalf("epoch after run = %d, want %d", got, want)
	}

	var sc QueryScratch
	for off, state := range snapshots {
		e := base + uint64(off)
		cur := make([]geom.Point, 0, len(state))
		for _, p := range state {
			cur = append(cur, p)
		}
		for q := 0; q < 6; q++ {
			u := randomUnit(rng, d)
			if !sameResults(tr.TopKAtInto(u, 5, e, &sc), bruteTopK(cur, u, 5)) {
				t.Fatalf("TopKAtInto mismatch at epoch offset %d", off)
			}
			tau := rng.Float64()
			got := make(map[int]bool)
			for _, r := range tr.AtLeastAtInto(u, tau, e, &sc) {
				got[r.Point.ID] = true
			}
			for _, p := range cur {
				if (geom.Score(u, p) >= tau) != got[p.ID] {
					t.Fatalf("AtLeastAtInto mismatch at epoch offset %d", off)
				}
			}
			if s, ok := tr.KthScoreAtInto(u, 5, e, &sc); ok {
				if want := bruteTopK(cur, u, 5); s != want[len(want)-1].Score {
					t.Fatalf("KthScoreAtInto mismatch at epoch offset %d", off)
				}
			} else if len(cur) > 0 {
				t.Fatalf("KthScoreAtInto !ok with %d live points", len(cur))
			}
		}
		for _, p := range pts {
			_, in := state[p.ID]
			got, ok := tr.PointByIDAt(p.ID, e)
			if ok != in {
				t.Fatalf("PointByIDAt(%d, +%d) ok = %v, want %v", p.ID, off, ok, in)
			}
			if in && got.ID != p.ID {
				t.Fatalf("PointByIDAt(%d, +%d) returned id %d", p.ID, off, got.ID)
			}
		}
	}

	// EndRetain compacts (30 tombstones > 10 live) and the present reads
	// must match the final state.
	tr.EndRetain()
	if tr.removed != 0 {
		t.Fatalf("deferred rebuild did not run: removed = %d", tr.removed)
	}
	cur := make([]geom.Point, 0, len(live))
	for _, p := range live {
		cur = append(cur, p)
	}
	for q := 0; q < 6; q++ {
		u := randomUnit(rng, d)
		if !sameResults(tr.TopK(u, 5), bruteTopK(cur, u, 5)) {
			t.Fatal("present TopK mismatch after EndRetain compaction")
		}
	}
}

// Epoch bookkeeping: every mutation advances the epoch; inserts after an
// as-of epoch are invisible to it.
func TestEpochVisibilityOfInserts(t *testing.T) {
	tr := New(2, []geom.Point{geom.NewPoint(0, 0.2, 0.2)})
	if tr.Epoch() != 0 {
		t.Fatalf("fresh tree epoch = %d", tr.Epoch())
	}
	tr.Insert(geom.NewPoint(1, 0.9, 0.9))
	e1 := tr.Epoch()
	if e1 != 1 {
		t.Fatalf("epoch after insert = %d", e1)
	}
	tr.Insert(geom.NewPoint(2, 1.0, 1.0))
	u := geom.Vector{1, 0}
	var sc QueryScratch
	if got := tr.TopKAtInto(u, 1, e1, &sc); len(got) != 1 || got[0].Point.ID != 1 {
		t.Fatalf("as-of read sees later insert: %v", got)
	}
	if _, ok := tr.PointByIDAt(2, e1); ok {
		t.Fatal("PointByIDAt sees later insert")
	}
	if _, ok := tr.PointByIDAt(2, tr.Epoch()); !ok {
		t.Fatal("present read misses live point")
	}
	// A replacing insert advances the epoch twice (delete + insert) and the
	// intermediate epoch sees neither copy... the deleted copy is only kept
	// inside a retain window, so open one.
	base := tr.BeginRetain()
	tr.Insert(geom.NewPoint(2, 0.1, 0.1))
	if got, want := tr.Epoch(), base+2; got != want {
		t.Fatalf("replace advanced epoch to %d, want %d", got, want)
	}
	if p, ok := tr.PointByIDAt(2, base); !ok || p.Coords[0] != 1.0 {
		t.Fatalf("old copy invisible at window base: %v %v", p, ok)
	}
	if _, ok := tr.PointByIDAt(2, base+1); ok {
		t.Fatal("intermediate epoch must see no copy of a replaced id")
	}
	if p, ok := tr.PointByIDAt(2, base+2); !ok || p.Coords[0] != 0.1 {
		t.Fatalf("new copy invisible after replace: %v %v", p, ok)
	}
	tr.EndRetain()
}
