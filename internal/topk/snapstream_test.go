package topk

import (
	"math/rand"
	"reflect"
	"testing"
)

// streamTwins builds two identically-seeded engines and churns both with the
// same prefix, so either can serve as the other's stop-the-world reference.
func streamTwins(t *testing.T, seed int64, shards int) (a, b *Engine, rng *rand.Rand) {
	t.Helper()
	rng = rand.New(rand.NewSource(seed))
	d, k, eps := 4, 2, 0.1
	pts := randomPoints(rng, 150, d, 0)
	utils := randomUtilities(rng, 48, d)
	prefix := randomOps(rng, pts, 300, d, 1000)
	a = NewEngineShards(d, k, eps, pts, utils, shards)
	b = NewEngineShards(d, k, eps, pts, utils, shards)
	a.ApplyBatch(prefix)
	b.ApplyBatch(prefix)
	return a, b, rng
}

// The streaming-capture contract: a session armed at some point and drained
// in small chunks WHILE the engine keeps mutating must assemble a snapshot
// deep-equal to the stop-the-world Snapshot() at the arm point, and the
// mutations that ran through the armed overlay must leave the engine in
// exactly the state the same mutations produce on an unarmed twin —
// identical emitted change groups, identical final snapshot.
func TestStreamingSnapshotMatchesStopTheWorld(t *testing.T) {
	for _, shards := range []int{1, 4} {
		a, b, rng := streamTwins(t, 61, shards)
		d := 4

		// b is frozen at the arm point just long enough to capture the
		// reference; afterwards it replays everything a does.
		stw := b.Snapshot()
		sess := a.StartSnapshot()
		if sess.Epoch == 0 {
			t.Fatalf("shards=%d: armed session reports epoch 0", shards)
		}

		mid := randomOps(rng, nil, 200, d, 2000)
		done := false
		step := func() {
			if !done {
				done = a.SnapshotChunk(3)
			}
		}
		for i := 0; i < len(mid); {
			n := 1 + rng.Intn(9)
			if i+n > len(mid) {
				n = len(mid) - i
			}
			batch := mid[i : i+n]
			i += n
			step()
			ga, gb := a.ApplyBatch(batch), b.ApplyBatch(batch)
			if !reflect.DeepEqual(ga, gb) {
				t.Fatalf("shards=%d: changes diverged while armed after %d ops", shards, i)
			}
		}
		for !done {
			step()
		}
		snap := a.FinishSnapshot()

		if !reflect.DeepEqual(snap, stw) {
			t.Fatalf("shards=%d: streamed capture differs from the stop-the-world capture at the arm point", shards)
		}
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("shards=%d: mutations applied while armed perturbed the engine", shards)
		}
	}
}

// Aborting a session — after chunks have run and mutations have paid the
// overlay copy — must leave the engine indistinguishable from a twin that
// was never armed, and must leave it re-armable.
func TestAbortSnapshotLeavesEngineIntact(t *testing.T) {
	a, b, rng := streamTwins(t, 71, 4)

	sess := a.StartSnapshot()
	_ = sess
	a.SnapshotChunk(4)
	mid := randomOps(rng, nil, 60, 4, 3000)
	ga, gb := a.ApplyBatch(mid), b.ApplyBatch(mid)
	if !reflect.DeepEqual(ga, gb) {
		t.Fatal("changes diverged while armed")
	}
	a.AbortSnapshot()

	more := randomOps(rng, nil, 60, 4, 4000)
	ga, gb = a.ApplyBatch(more), b.ApplyBatch(more)
	if !reflect.DeepEqual(ga, gb) {
		t.Fatal("changes diverged after abort")
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("aborted session left residue in the engine state")
	}

	// Re-arm and drain with no interleaved writes: the capture must equal a
	// plain Snapshot of the current state.
	want := a.Snapshot()
	a.StartSnapshot()
	for !a.SnapshotChunk(7) {
	}
	if got := a.FinishSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("re-armed capture after abort differs from Snapshot()")
	}
}
