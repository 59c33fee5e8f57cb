package rms_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"fdrms/rms"
)

// Membership follows the last operation on each id within a batch, whatever
// order the batch lists its ids in, and every generation keeps the
// membership of its own commit. Len and Contains are checked against a map
// model on the newest generation, on generations pinned before later
// writes, and across a tuple-index rebuild.
func TestGenerationMembershipLastOpWins(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 3
	initial := randomTuples(rng, 40, d, 0)
	store, err := rms.NewStore(d, initial, rms.Options{K: 1, R: 5, Epsilon: 0.05, MaxUtilities: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	model := make(map[int]bool)
	for _, p := range initial {
		model[p.ID] = true
	}
	check := func(what string, g *rms.Generation, live map[int]bool) {
		t.Helper()
		if g.Len() != len(live) {
			t.Fatalf("%s: generation %d Len = %d, want %d", what, g.ID(), g.Len(), len(live))
		}
		for id := -2; id < 130; id++ {
			if g.Contains(id) != live[id] {
				t.Fatalf("%s: generation %d Contains(%d) = %v, want %v", what, g.ID(), id, g.Contains(id), live[id])
			}
		}
	}
	type pin struct {
		what string
		g    *rms.Generation
		live map[int]bool
	}
	var pins []pin
	commit := func(what string, batch []rms.Update) {
		t.Helper()
		if err := store.ApplyBatch(batch); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, u := range batch {
			if u.Delete {
				delete(model, u.ID)
			} else {
				model[u.Point.ID] = true
			}
		}
		g, live := store.Current(), maps.Clone(model)
		check(what, g, live)
		pins = append(pins, pin{what, g, live})
	}
	tuple := func(id int) rms.Point { return randomTuples(rng, 1, d, id)[0] }

	commit("insert then delete of one id", []rms.Update{rms.Ins(tuple(100)), rms.Del(100)})
	commit("delete then re-insert", []rms.Update{rms.Del(3), rms.Ins(tuple(3))})
	commit("replace of a live id", []rms.Update{rms.Ins(tuple(5))})
	commit("delete of an absent id", []rms.Update{rms.Del(101)})
	commit("unsorted batch order", []rms.Update{rms.Ins(tuple(107)), rms.Del(4), rms.Ins(tuple(101)), rms.Del(1), rms.Ins(tuple(102))})

	// Deleting more than half of the live tuples forces the tuple index to
	// rebuild into fresh pages under the pinned generations.
	ids := make([]int, 0, len(model))
	//fdrms:orderinvariant collects the keys only; they are sorted below
	for id := range model {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var dels []rms.Update
	for _, id := range ids[:3*len(ids)/4] {
		dels = append(dels, rms.Del(id))
	}
	commit("rebuild", dels)
	commit("after rebuild", []rms.Update{rms.Ins(tuple(0)), rms.Del(ids[len(ids)-1]), rms.Ins(tuple(120))})

	for _, p := range pins {
		check("pinned "+p.what, p.g, p.live)
	}
}
