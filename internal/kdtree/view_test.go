package kdtree

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fdrms/internal/geom"
)

// A view must keep answering with the point set of its capture instant while
// the live tree absorbs inserts, deletes, and rebuilds.
func TestViewPinnedAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 4
	pts := randomPoints(rng, 200, d)
	tr := New(d, pts)

	frozen := append([]geom.Point(nil), pts...)
	v := tr.View()
	if v.Len() != 200 || v.Epoch() != tr.Epoch() {
		t.Fatalf("view len/epoch: %d/%d", v.Len(), v.Epoch())
	}

	// Churn hard enough to force several rebuilds (delete > half, reinsert).
	for round := 0; round < 3; round++ {
		for id := 0; id < 150; id++ {
			tr.Delete(id)
		}
		for _, p := range randomPoints(rng, 150, d) {
			tr.Insert(p)
		}
	}

	us := geom.BasisThenRandom(d, 8, 7)
	for _, u := range us {
		for _, k := range []int{1, 3, 17} {
			got := v.TopK(u, k)
			want := bruteTopK(frozen, u, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("view TopK(k=%d) diverged after churn:\n got %v\nwant %v", k, got, want)
			}
			var sc QueryScratch
			kth, ok := v.KthScoreInto(u, k, &sc)
			if !ok || kth != want[min(k, len(want))-1].Score {
				t.Fatalf("view KthScore(k=%d) = %v,%v want %v", k, kth, ok, want[min(k, len(want))-1].Score)
			}
			al := copyResults(v.AtLeastInto(u, kth, &sc))
			for _, r := range al {
				if r.Score < kth {
					t.Fatalf("AtLeast returned score %v below threshold %v", r.Score, kth)
				}
			}
			if len(al) < k {
				t.Fatalf("AtLeast at kth score returned %d < k=%d points", len(al), k)
			}
		}
	}
}

// A view taken mid-life must observe tombstones recorded before the capture
// (deleted points invisible) without a retain window being open.
func TestViewSeesDeletesBeforeCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 3
	pts := randomPoints(rng, 100, d)
	tr := New(d, pts)
	for id := 0; id < 30; id++ {
		tr.Delete(id)
	}
	v := tr.View()
	live := make([]geom.Point, 0, 70)
	for _, p := range pts {
		if p.ID >= 30 {
			live = append(live, p)
		}
	}
	u := geom.BasisThenRandom(d, 4, 3)[3]
	if got, want := v.TopK(u, 10), bruteTopK(live, u, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("view includes pre-capture tombstones:\n got %v\nwant %v", got, want)
	}
}

// Copy-on-write: View() must mark every page shared, a rebuild with an
// outstanding view must build into fresh pages and move the live tree to
// fresh point arrays, and repeated view-then-churn cycles must keep the live
// arena bounded — views never pin tombstones inside the live tree.
func TestViewRebuildCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := 3
	tr := New(d, randomPoints(rng, 128, d))

	var views []*View
	var lens []int
	maxArena := 0
	for round := 0; round < 10; round++ {
		views = append(views, tr.View())
		lens = append(lens, tr.Len())
		if got, all := sharedPages(tr), len(tr.pages)+len(tr.ids.pages); got != all || tr.flatGen == tr.gen {
			t.Fatalf("View() marked %d of %d pages shared (flat arrays shared: %v)", got, all, tr.flatGen != tr.gen)
		}
		old := &tr.pts[0]
		for id := round * 64; id < round*64+96; id++ {
			tr.Delete(id % 128)
		}
		for _, p := range randomPoints(rng, 96, d) {
			tr.Insert(p)
		}
		if got := sharedPages(tr); got != 0 || tr.flatGen != tr.gen {
			t.Fatalf("round %d: no rebuild happened under 96 deletes (%d pages still shared)", round, got)
		}
		if &tr.pts[0] == old {
			t.Fatalf("round %d: rebuild compacted in place while a view aliased the arena", round)
		}
		if len(tr.pts) > maxArena {
			maxArena = len(tr.pts)
		}
	}
	// The live arena never accumulates across rounds: it holds the live
	// points plus at most the tombstones of the current round.
	if maxArena > 3*tr.Len() {
		t.Fatalf("live arena grew to %d nodes for %d live points", maxArena, tr.Len())
	}
	// Every captured view still reports the live count of its capture
	// instant (its frozen arena was never compacted away under it).
	for i, v := range views {
		if v.Len() != lens[i] {
			t.Fatalf("view %d reports %d live points, want %d", i, v.Len(), lens[i])
		}
	}
}

// sharedPages counts the tree's node and id pages that a view may share.
func sharedPages(tr *Tree) int {
	n := 0
	for _, pg := range tr.pages {
		if pg.gen != tr.gen {
			n++
		}
	}
	for _, pg := range tr.ids.pages {
		if pg.gen != tr.gen {
			n++
		}
	}
	return n
}

// A page clone copies node records, not bounds: after View(), a batch of
// tombstones leaves every page's box array shared with the view, and an
// insert gives a private array to exactly the pages whose rows it writes —
// the ancestors whose box or coordinate sum it extends and the page of its
// new node — while the view keeps answering for its own epoch.
func TestViewBoxMaxClonedOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const d = 3
	live := randomPoints(rng, 2000, d)
	tr := New(d, live)
	v := tr.View()
	for id := 0; id < 300; id += 3 {
		tr.Delete(id)
	}
	if got := privateBoxMax(tr, v); len(got) != 0 {
		t.Fatalf("tombstones cloned the box arrays of pages %v", got)
	}
	if sharedPages(tr) == len(tr.pages)+len(tr.ids.pages) {
		t.Fatal("tombstones cloned no page: the batch wrote nothing")
	}
	live = slices.DeleteFunc(live, func(q geom.Point) bool { return q.ID < 300 && q.ID%3 == 0 })

	sharedBounds := 0 // pages an insert cloned without writing their bounds
	for i, p := range randomPoints(rng, 40, d) {
		p.ID = 5000 + i
		v = tr.View()
		before := len(tr.pts)
		tr.Insert(p)
		// Rows the insert raised differ from the view's copy; the new node
		// was written whole.
		want := map[int]bool{before >> pageShift: true}
		for idx := int32(0); int(idx) < before; idx++ {
			if !slices.Equal(tr.boxRow(idx), v.boxRow(idx)) {
				want[int(idx>>pageShift)] = true
			}
		}
		got := privateBoxMax(tr, v)
		if before>>pageShift == len(v.pages) {
			got = append(got, before>>pageShift) // a fresh tail page
		}
		if len(got) != len(want) || len(want) >= len(v.pages) {
			t.Fatalf("insert %d: pages %v own their box, want exactly %v", i, got, want)
		}
		for _, pg := range got {
			if !want[pg] {
				t.Fatalf("insert %d: pages %v own their box, want exactly %v", i, got, want)
			}
		}
		for pg := range v.pages {
			if tr.pages[pg].gen == tr.gen && !want[pg] {
				sharedBounds++
			}
		}
		var sc QueryScratch
		for _, u := range geom.BasisThenRandom(d, 6, int64(i)) {
			if got, want := v.TopKInto(u, 5, &sc), bruteTopK(live, u, 5); !sameResults(got, want) {
				t.Fatalf("insert %d: view TopK %v, want %v", i, got, want)
			}
			tau := bruteTopK(live, u, 40)[39].Score
			gotIDs := make([]int, 0, 40)
			for _, r := range v.AtLeastInto(u, tau, &sc) {
				gotIDs = append(gotIDs, r.Point.ID)
			}
			slices.Sort(gotIDs)
			var wantIDs []int
			for _, q := range live {
				if geom.Score(u, q) >= tau {
					wantIDs = append(wantIDs, q.ID)
				}
			}
			slices.Sort(wantIDs)
			if !slices.Equal(gotIDs, wantIDs) {
				t.Fatalf("insert %d: view AtLeast %v, want %v", i, gotIDs, wantIDs)
			}
		}
		live = append(live, p)
	}
	if sharedBounds == 0 {
		t.Fatal("no insert cloned a page whose bounds it left alone")
	}
}

// privateBoxMax lists the pages of v whose box array the tree no longer
// shares with it.
func privateBoxMax(tr *Tree, v *View) []int {
	var out []int
	for i, pg := range v.pages {
		if &tr.pages[i].box[0] != &pg.box[0] {
			out = append(out, i)
		}
	}
	return out
}

// The deferred rebuild at EndRetain must also copy-on-write when a view is
// outstanding.
func TestViewSurvivesRetainWindowRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := 3
	pts := randomPoints(rng, 80, d)
	tr := New(d, pts)
	v := tr.View()

	tr.BeginRetain()
	for id := 0; id < 60; id++ {
		tr.Delete(id)
	}
	tr.EndRetain() // triggers the deferred rebuild

	u := geom.BasisThenRandom(d, 3, 5)[2]
	if got, want := v.TopK(u, 5), bruteTopK(pts, u, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("view diverged across a retain-window rebuild:\n got %v\nwant %v", got, want)
	}
	if tr.retaining {
		t.Fatal("retain window did not close")
	}
}

// View answers must be bit-identical to the live tree's answers when no
// mutation intervenes — same traversal, same tie handling, same floats.
func TestViewMatchesTreeAtCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := 5
	tr := New(d, randomPoints(rng, 300, d))
	for id := 0; id < 90; id++ {
		tr.Delete(id * 3)
	}
	v := tr.View()
	var sc QueryScratch
	for _, u := range geom.BasisThenRandom(d, 10, 9) {
		for _, k := range []int{1, 4, 32} {
			a := copyResults(tr.TopKInto(u, k, &sc))
			b := v.TopK(u, k)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("tree and view diverge at capture (k=%d):\n tree %v\n view %v", k, a, b)
			}
		}
	}
}

// A view answers Len and Contains with the live set of its epoch: ids
// deleted, re-inserted or inserted after the capture do not change it, and
// neither does a rebuild after the capture.
func TestViewContainsAtEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := 3
	tr := New(d, randomPoints(rng, 200, d))
	for id := 0; id < 20; id++ {
		tr.Delete(id)
	}
	v := tr.View()
	check := func(what string, v *View, live func(id int) bool, want int) {
		t.Helper()
		if v.Len() != want {
			t.Fatalf("%s: view Len = %d, want %d", what, v.Len(), want)
		}
		for id := -1; id < 600; id++ {
			if v.Contains(id) != live(id) {
				t.Fatalf("%s: view Contains(%d) = %v, want %v", what, id, v.Contains(id), live(id))
			}
		}
	}
	atCapture := func(id int) bool { return id >= 20 && id < 200 }
	check("at capture", v, atCapture, 180)

	for id := 20; id < 60; id++ {
		tr.Delete(id)
	}
	fresh := func(id int) geom.Point { p := randomPoints(rng, 1, d)[0]; p.ID = id; return p }
	for id := 40; id < 60; id++ {
		tr.Insert(fresh(id)) // deleted after the capture, then re-inserted
	}
	for id := 0; id < 10; id++ {
		tr.Insert(fresh(id)) // deleted before the capture, re-inserted after
	}
	for id := 500; id < 520; id++ {
		tr.Insert(fresh(id))
	}
	tr.Insert(fresh(100)) // replace of an id live at the capture
	check("after churn", v, atCapture, 180)

	// Deleting more than half of the tree rebuilds it into fresh pages.
	for id := 60; id < 200; id++ {
		tr.Delete(id)
	}
	if n := sharedPages(tr); n != 0 {
		t.Fatalf("no rebuild happened: %d pages still shared with the view", n)
	}
	check("after rebuild", v, atCapture, 180)
	present := func(id int) bool { return (id >= 0 && id < 10) || (id >= 40 && id < 60) || (id >= 500 && id < 520) }
	check("view after rebuild", tr.View(), present, 50)
	for id := -1; id < 600; id++ {
		if tr.Contains(id) != present(id) {
			t.Fatalf("tree Contains(%d) = %v, want %v", id, tr.Contains(id), present(id))
		}
	}
}

// Reader goroutines query pinned views — each checked against a
// brute-force scan of its own capture — while one writer inserts, replaces,
// deletes and rebuilds. Views share pages with the live tree, so under
// -race this checks the copy-on-write rule directly: the writer never
// writes a page or array a view may read.
func TestViewConcurrentReadersVsWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const d = 3
	live := randomPoints(rng, 300, d)
	at := make(map[int]int, len(live)) // id → index in live
	for i, p := range live {
		at[p.ID] = i
	}
	tr := New(d, live)
	type pinned struct {
		v   *View
		pts []geom.Point
	}
	var cur atomic.Pointer[pinned]
	publish := func() { cur.Store(&pinned{tr.View(), slices.Clone(live)}) }
	publish()

	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var sc QueryScratch
			var held []*pinned
			for {
				select {
				case <-done:
					return
				default:
				}
				if p := cur.Load(); len(held) < 8 {
					held = append(held, p)
				} else {
					held[rng.Intn(len(held))] = p
				}
				q := held[rng.Intn(len(held))]
				u := randomUnit(rng, d)
				k := 1 + rng.Intn(8)
				want := bruteTopK(q.pts, u, k)
				if got := q.v.TopKInto(u, k, &sc); !sameResults(got, want) {
					t.Errorf("view at epoch %d: TopK(k=%d) = %v, want %v", q.v.Epoch(), k, got, want)
					return
				}
				if kth, ok := q.v.KthScoreInto(u, k, &sc); !ok || kth != want[len(want)-1].Score {
					t.Errorf("view at epoch %d: KthScore(k=%d) = %v,%v, want %v", q.v.Epoch(), k, kth, ok, want[len(want)-1].Score)
					return
				}
				if q.v.Len() != len(q.pts) || !q.v.Contains(q.pts[rng.Intn(len(q.pts))].ID) {
					t.Errorf("view at epoch %d: Len %d for %d points, or a captured id missing", q.v.Epoch(), q.v.Len(), len(q.pts))
					return
				}
				reads.Add(1)
			}
		}(int64(r))
	}

	del := func(i int) {
		p := live[i]
		tr.Delete(p.ID)
		last := len(live) - 1
		live[i] = live[last]
		at[live[i].ID] = i
		live = live[:last]
		delete(at, p.ID)
	}
	next := 1000
	for round := 0; round < 60; round++ {
		for op := 0; op < 20; op++ {
			p := randomPoints(rng, 1, d)[0]
			switch c := rng.Intn(3); {
			case c == 0 && len(live) > 50:
				del(rng.Intn(len(live)))
				continue
			case c == 1:
				p.ID = live[rng.Intn(len(live))].ID // replace a live id
			default:
				p.ID = next
				next++
			}
			tr.Insert(p)
			if i, ok := at[p.ID]; ok {
				live[i] = p
			} else {
				at[p.ID] = len(live)
				live = append(live, p)
			}
		}
		if round%15 == 14 {
			for len(live) > 100 {
				del(rng.Intn(len(live))) // more than half: a rebuild
			}
		}
		publish()
		// Let the readers overlap the next round's writes.
		for r0 := reads.Load(); reads.Load() < r0+3 && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
}
