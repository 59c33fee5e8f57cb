package replica

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fdrms/rms"
)

const testDim = 3

func testOptions() rms.Options {
	return rms.Options{K: 1, R: 4, Epsilon: 0.1, MaxUtilities: 32, Seed: 5, Shards: 2}
}

func testPoints(rng *rand.Rand, n, idBase int) []rms.Point {
	pts := make([]rms.Point, n)
	for i := range pts {
		v := make([]float64, testDim)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = rms.Point{ID: idBase + i, Values: v}
	}
	return pts
}

// testBatches yields a deterministic mixed insert/delete stream.
func testBatches(rng *rand.Rand, nBatches int) [][]rms.Update {
	var live []int
	next := 1000
	batches := make([][]rms.Update, nBatches)
	for b := range batches {
		n := 1 + rng.Intn(4)
		batch := make([]rms.Update, 0, n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 && len(live) > 0 {
				j := rng.Intn(len(live))
				batch = append(batch, rms.Del(live[j]))
				live = append(live[:j], live[j+1:]...)
			} else {
				p := testPoints(rng, 1, next)[0]
				next++
				batch = append(batch, rms.Ins(p))
				live = append(live, p.ID)
			}
		}
		batches[b] = batch
	}
	return batches
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// segmentFiles lists the WAL segment names in dir, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// fastFollower returns Options tuned so tests converge in milliseconds.
func fastFollower(fs *FaultFS) Options {
	o := Options{
		PollInterval: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		MaxBatchOps:  64,
	}
	if fs != nil { // a typed-nil FS would defeat the withDefaults check
		o.FS = fs
	}
	return o
}

// mustConverge waits until the follower has applied through seq and its
// engine state is byte-identical to the primary's.
func mustConverge(t *testing.T, f *Follower, ds *rms.DurableStore, seq uint64) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		return f.Status().AppliedSeq >= seq
	}, "follower to reach primary seq")
	got, at, ok := f.EncodeState()
	if !ok {
		t.Fatal("follower has no state after convergence")
	}
	if at < seq {
		t.Fatalf("follower regressed to seq %d after reaching %d", at, seq)
	}
	want := ds.EncodeState()
	if at == ds.LastSeq() && !bytes.Equal(got, want) {
		t.Fatalf("follower state at seq %d differs from primary (%d vs %d bytes)", at, len(got), len(want))
	}
}

func TestFollowerConvergesAcrossRotationsAndIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ds, err := rms.OpenDurable(dir, testDim, nil, testOptions(), rms.DurableOptions{
		SyncEveryBatch: true, SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f := Open(dir, fastFollower(nil))
	defer f.Close()

	rng := rand.New(rand.NewSource(42))
	// Per-seq bit equality: after each primary batch, the follower at the
	// same seq must encode the identical engine state.
	for i, batch := range testBatches(rng, 25) {
		if err := ds.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		seq := ds.LastSeq()
		want := ds.EncodeState()
		waitFor(t, 10*time.Second, func() bool {
			return f.Status().AppliedSeq >= seq
		}, "follower to catch up")
		got, at, ok := f.EncodeState()
		if !ok || at != seq {
			t.Fatalf("batch %d: follower at seq %d ok=%v, want %d", i, at, ok, seq)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batch %d: follower state at seq %d is not bit-identical to primary", i, seq)
		}
	}
	if n := len(segmentFiles(t, dir)); n < 2 {
		t.Fatalf("stream did not rotate (only %d segments) — weak test", n)
	}
	st := f.Status()
	if st.State != StateFollowing || st.Reason != "" || st.Resyncs != 0 {
		t.Fatalf("healthy convergence ended in %v (%q, resyncs %d)", st.State, st.Reason, st.Resyncs)
	}
}

func TestFollowerTornActiveTailDegradesThenResumes(t *testing.T) {
	dir := t.TempDir()
	ds, err := rms.OpenDurable(dir, testDim, nil, testOptions(), rms.DurableOptions{SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := ds.ApplyBatch(testBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}

	ffs := NewFaultFS(nil)
	opt := fastFollower(ffs)
	opt.StalenessBound = 50 * time.Millisecond
	f := Open(dir, opt)
	defer f.Close()
	mustConverge(t, f, ds, ds.LastSeq())
	caughtUp := f.Status().AppliedSeq

	// Stall shipping mid-record: freeze visibility at the converged prefix,
	// let the primary write one more batch, then expose all but the last two
	// bytes — the shape of a crashed fsync or a cut mid-append.
	segs := segmentFiles(t, dir)
	active := segs[len(segs)-1]
	if err := ffs.Freeze(dir); err != nil {
		t.Fatal(err)
	}
	if err := ds.ApplyBatch(testBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	ffs.TruncateAt(active, fileSize(t, filepath.Join(dir, active))-2)
	ffs.ClearStall()

	// The torn tail is pending, not corruption: the follower keeps serving
	// its last consistent seq, does not quarantine, and degrades only via
	// the staleness bound.
	waitFor(t, 10*time.Second, func() bool {
		return f.Status().State == StateDegraded
	}, "staleness degradation")
	st := f.Status()
	if st.AppliedSeq != caughtUp {
		t.Fatalf("follower advanced through a torn record: seq %d, want %d", st.AppliedSeq, caughtUp)
	}
	if !strings.Contains(st.Reason, "staleness") {
		t.Fatalf("degraded for %q, want a staleness reason (torn tail must not quarantine)", st.Reason)
	}
	if st.Retries == 0 {
		t.Fatal("pending polls did not count retries")
	}

	// The fault clears (the primary's write completes): replication resumes
	// with no resync and converges bit-identically.
	ffs.TruncateAt(active, -1)
	mustConverge(t, f, ds, ds.LastSeq())
	waitFor(t, 10*time.Second, func() bool {
		return f.Status().State == StateFollowing
	}, "recovery to following")
	if st := f.Status(); st.Resyncs != 0 {
		t.Fatalf("torn tail forced %d resyncs, want 0", st.Resyncs)
	}
}

func TestFollowerDelayedSegmentVisibility(t *testing.T) {
	dir := t.TempDir()
	ds, err := rms.OpenDurable(dir, testDim, nil, testOptions(), rms.DurableOptions{
		SyncEveryBatch: true, SegmentBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := ds.ApplyBatch(testBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}

	ffs := NewFaultFS(nil)
	f := Open(dir, fastFollower(ffs))
	defer f.Close()
	mustConverge(t, f, ds, ds.LastSeq())
	caughtUp := f.Status().AppliedSeq

	// Freeze the directory: batches (and whole segments) the primary writes
	// next are invisible to the follower, like a replication channel with
	// delayed file visibility.
	if err := ffs.Freeze(dir); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(rng, 10) {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// An invisible suffix is indistinguishable from an idle primary: the
	// follower stays healthy at its last seq (clean caught-up polls), it
	// does not invent or corrupt anything.
	time.Sleep(20 * time.Millisecond)
	st := f.Status()
	if st.AppliedSeq != caughtUp {
		t.Fatalf("follower saw through the freeze: seq %d, want %d", st.AppliedSeq, caughtUp)
	}
	if st.State != StateFollowing || st.Reason != "" {
		t.Fatalf("freeze flipped health to %v (%q)", st.State, st.Reason)
	}

	ffs.ClearStall()
	mustConverge(t, f, ds, ds.LastSeq())
}

func TestFollowerQuarantinesSealedCorruptionAndHeals(t *testing.T) {
	dir := t.TempDir()
	ds, err := rms.OpenDurable(dir, testDim, nil, testOptions(), rms.DurableOptions{
		SyncEveryBatch: true, SegmentBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, b := range testBatches(rng, 20) {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	segs := segmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}

	// Corrupt a byte inside the SECOND (sealed) segment before the follower
	// ever reads it: bootstrap lands before the damage, tailing hits it.
	ffs := NewFaultFS(nil)
	ffs.FlipByte(segs[1], 20)
	opt := fastFollower(ffs)
	f := Open(dir, opt)
	defer f.Close()

	waitFor(t, 10*time.Second, func() bool {
		st := f.Status()
		return st.State == StateDegraded && st.Reason != "" && !strings.Contains(st.Reason, "staleness")
	}, "quarantine of sealed-segment corruption")
	st := f.Status()
	if st.AppliedSeq >= ds.LastSeq() {
		t.Fatal("follower claims to be caught up across a corrupt segment")
	}
	// Still serving: the last consistent generation answers reads.
	if g, _ := f.Current(); g == nil {
		t.Fatal("quarantined follower stopped serving")
	}
	if m, _, ok := f.EncodeState(); !ok || m == nil {
		t.Fatal("quarantined follower lost its state")
	}

	// The fault heals (operator restores the segment bytes): the next clean
	// poll lifts the quarantine and replication converges bit-identically —
	// the follower never applied a damaged record.
	ffs.ClearFlips(segs[1])
	mustConverge(t, f, ds, ds.LastSeq())
	waitFor(t, 10*time.Second, func() bool {
		st := f.Status()
		return st.State == StateFollowing && st.Reason == ""
	}, "quarantine to clear after heal")
	if st := f.Status(); st.Resyncs != 0 {
		t.Fatalf("sealed corruption healed in place but took %d resyncs", st.Resyncs)
	}
}

func TestSlowFollowerResyncsAfterCheckpointAndPrune(t *testing.T) {
	dir := t.TempDir()
	ds, err := rms.OpenDurable(dir, testDim, nil, testOptions(), rms.DurableOptions{
		SyncEveryBatch: true, SegmentBytes: 256, KeepCheckpoints: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, b := range testBatches(rng, 5) {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	ffs := NewFaultFS(nil)
	f := Open(dir, fastFollower(ffs))
	defer f.Close()
	mustConverge(t, f, ds, ds.LastSeq())

	// The follower stalls; the primary advances through several rotations,
	// checkpoints, and prunes the follower's position out of the log.
	if err := ffs.Freeze(dir); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(rng, 40) {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(segmentFiles(t, dir)); n > 2 {
		t.Fatalf("prune left %d segments; the gap scenario needs the tail gone", n)
	}
	ffs.ClearStall()

	// The position is gone: the follower must re-bootstrap from the newer
	// checkpoint (a resync) and still converge bit-identically.
	mustConverge(t, f, ds, ds.LastSeq())
	waitFor(t, 10*time.Second, func() bool {
		return f.Status().State == StateFollowing
	}, "post-resync following")
	if st := f.Status(); st.Resyncs == 0 {
		t.Fatal("pruned-out follower converged without a resync — gap handling untested")
	}
}

func TestFollowerBootstrapWaitsForPrimary(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	// Pointed at a primary that does not exist yet.
	f := Open(dir, fastFollower(nil))
	defer f.Close()
	time.Sleep(10 * time.Millisecond)
	if st := f.Status(); st.State != StateBootstrapping {
		t.Fatalf("follower with no primary is %v, want bootstrapping", st.State)
	}
	if g, _ := f.Current(); g != nil {
		t.Fatal("bootstrapping follower served a generation")
	}

	// The primary appears, writes, and checkpoints: the follower comes up.
	ds, err := rms.OpenDurable(dir, testDim, nil, testOptions(), rms.DurableOptions{SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rng := rand.New(rand.NewSource(6))
	if err := ds.ApplyBatch(testBatches(rng, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustConverge(t, f, ds, ds.LastSeq())
}
