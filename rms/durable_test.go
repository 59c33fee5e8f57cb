package rms

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fdrms/internal/core"
	"fdrms/internal/wal"
)

// durableTestOptions keeps the engine small enough that the truncation sweep
// (one full recovery per byte offset) stays fast.
func durableTestOptions() Options {
	return Options{K: 1, R: 4, Epsilon: 0.1, MaxUtilities: 32, Seed: 5, Shards: 2}
}

func durableTestPoints(rng *rand.Rand, n, d, idBase int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = Point{ID: idBase + i, Values: v}
	}
	return pts
}

// durableTestBatches yields a deterministic mixed update stream in batches.
func durableTestBatches(rng *rand.Rand, initial []Point, nBatches, d int) [][]Update {
	live := make([]int, 0, len(initial)+nBatches*4)
	for _, p := range initial {
		live = append(live, p.ID)
	}
	next := 10000
	batches := make([][]Update, nBatches)
	for b := range batches {
		n := 1 + rng.Intn(4)
		batch := make([]Update, 0, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 && len(live) > 0 {
				j := rng.Intn(len(live))
				batch = append(batch, Del(live[j]))
				live = append(live[:j], live[j+1:]...)
			} else {
				p := durableTestPoints(rng, 1, d, next)[0]
				next++
				batch = append(batch, Ins(p))
				live = append(live, p.ID)
			}
		}
		batches[b] = batch
	}
	return batches
}

// engineState captures everything the bit-identical contract covers: the
// encoded full snapshot (result set, Φ, covers, counters — all of it).
func engineState(t *testing.T, f *core.FDRMS) []byte {
	t.Helper()
	return core.EncodeSnapshot(nil, f.Snapshot())
}

func TestDurableStoreRecoversCleanShutdown(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := 3
	initial := durableTestPoints(rng, 80, d, 0)
	batches := durableTestBatches(rng, initial, 30, d)
	dir := t.TempDir()

	ds, err := OpenDurable(dir, d, initial, durableTestOptions(), DurableOptions{SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	// Clean reference: the uninterrupted run.
	ref, err := NewDynamic(d, initial, durableTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	want := engineState(t, ref.f)
	if !bytes.Equal(engineState(t, ds.store.d.f), want) {
		t.Fatal("durable store diverged from the plain engine before any crash")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert(initial[0]); err == nil {
		t.Fatal("write after Close succeeded")
	}

	re, err := OpenDurable(dir, 0, nil, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(engineState(t, re.store.d.f), want) {
		t.Fatal("recovered state differs from the uninterrupted run")
	}
	if !reflect.DeepEqual(re.Current().Result(), ref.Result()) {
		t.Fatal("recovered result differs")
	}
}

// The central crash-recovery property: for EVERY byte offset inside the
// final log record, truncating the log there (the file a crash tore) and
// reopening must land on the last durable prefix — all batches if the record
// survived whole, all but the last otherwise — with state bit-identical to
// an uninterrupted run over that same prefix. Recovery must also keep
// accepting writes identically afterwards.
func TestDurableStoreCrashTruncationSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := 3
	initial := durableTestPoints(rng, 60, d, 0)
	nBatches := 12
	batches := durableTestBatches(rng, initial, nBatches, d)
	dir := t.TempDir()

	ds, err := OpenDurable(dir, d, initial, durableTestOptions(), DurableOptions{SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	// wants[i] is the reference state after i batches; conts[i] the state
	// after additionally applying the continuation batch.
	ref, err := NewDynamic(d, initial, durableTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	continuation := durableTestBatches(rand.New(rand.NewSource(99)), nil, 1, d)[0]
	wants := make([][]byte, nBatches+1)
	conts := make([][]byte, nBatches+1)
	snapAt := func(i int) {
		wants[i] = engineState(t, ref.f)
		cc, err := core.DecodeSnapshot(wants[i])
		if err != nil {
			t.Fatal(err)
		}
		cf, err := core.Restore(cc, 2)
		if err != nil {
			t.Fatal(err)
		}
		cd := &Dynamic{f: cf, dim: d}
		if err := cd.ApplyBatch(continuation); err != nil {
			t.Fatal(err)
		}
		conts[i] = engineState(t, cf)
	}
	snapAt(0)
	for i, b := range batches {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		snapAt(i + 1)
		if i == nBatches/2 {
			// A mid-stream checkpoint: recovery must compose checkpoint +
			// replay, not just replay from genesis.
			if _, err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Simulated crash: no Close. The log was synced per batch, so the files
	// hold everything.
	segs := walSegments(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the final record begins: reopen a copy truncated to just
	// before the end and take the durable length... simpler: recover lengths
	// by scanning backwards — the final record is the tail that, removed,
	// leaves nBatches-1 batches. We get its start by trying offsets from the
	// end until the recovered LastSeq drops.
	finalStart := -1
	for cut := len(full) - 1; cut >= 0; cut-- {
		if lastSeqAfterTruncate(t, dir, path, full, cut) == uint64(nBatches-1) {
			finalStart = cut
		} else if finalStart >= 0 {
			break
		}
	}
	if finalStart < 0 {
		t.Fatal("could not locate the final record")
	}

	for cut := finalStart; cut <= len(full); cut++ {
		wantBatches := nBatches - 1
		if cut == len(full) {
			wantBatches = nBatches
		}
		truncateTo(t, path, full, cut)
		re, err := OpenDurable(dir, 0, nil, Options{Shards: 2}, DurableOptions{SyncEveryBatch: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := engineState(t, re.store.d.f); !bytes.Equal(got, wants[wantBatches]) {
			t.Fatalf("cut %d: recovered state is not the %d-batch prefix state", cut, wantBatches)
		}
		// Recovery must continue identically too.
		if err := re.ApplyBatch(continuation); err != nil {
			t.Fatalf("cut %d: continuation: %v", cut, err)
		}
		if got := engineState(t, re.store.d.f); !bytes.Equal(got, conts[wantBatches]) {
			t.Fatalf("cut %d: post-recovery writes diverge from the clean run", cut)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		truncateTo(t, path, full, len(full))
	}
}

// lastSeqAfterTruncate truncates the segment copy to cut bytes, opens the
// store, and reports how many batches survived.
func lastSeqAfterTruncate(t *testing.T, dir, path string, full []byte, cut int) uint64 {
	t.Helper()
	truncateTo(t, path, full, cut)
	re, err := OpenDurable(dir, 0, nil, Options{}, DurableOptions{})
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	seq := re.LastSeq()
	re.Close()
	truncateTo(t, path, full, len(full))
	return seq
}

func truncateTo(t *testing.T, path string, full []byte, cut int) {
	t.Helper()
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
}

// walSegments lists the wal segment files of a durable dir, oldest first.
func walSegments(t *testing.T, dir string) []string {
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
	if len(names) == 0 {
		t.Fatal("no wal segments")
	}
	return names
}

// An unsynced tail is allowed to vanish in a crash — but never to recover
// into a state the clean run could not have produced: whatever prefix
// survives must be a batch boundary state.
func TestDurableStoreIntervalSyncCrashLandsOnPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	d := 3
	initial := durableTestPoints(rng, 50, d, 0)
	batches := durableTestBatches(rng, initial, 20, d)
	dir := t.TempDir()

	ds, err := OpenDurable(dir, d, initial, durableTestOptions(),
		DurableOptions{SyncInterval: time.Hour}) // nothing syncs until Sync/Close
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewDynamic(d, initial, durableTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := make([][]byte, len(batches)+1)
	prefixes[0] = engineState(t, ref.f)
	for i, b := range batches {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		prefixes[i+1] = engineState(t, ref.f)
		if i == 9 {
			if err := ds.Sync(); err != nil { // make a mid-stream prefix durable
				t.Fatal(err)
			}
		}
	}
	// Crash without Close: batches after the explicit Sync lived only in the
	// write buffer and are gone — that loss is the policy's contract. What
	// recovery must guarantee: the fsynced prefix (>= 10 batches) survives,
	// and whatever prefix is recovered is exactly a batch-boundary state of
	// the clean run, never a blend.
	re, err := OpenDurable(dir, 0, nil, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n := int(re.LastSeq())
	if n < 10 || n > len(batches) {
		t.Fatalf("recovered %d batches; the 10-batch synced prefix must survive", n)
	}
	if !bytes.Equal(engineState(t, re.store.d.f), prefixes[n]) {
		t.Fatalf("recovered state is not the %d-batch prefix state", n)
	}
}

func TestDurableStoreCheckpointPrunesAndRecoversWithoutOldSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := 3
	initial := durableTestPoints(rng, 40, d, 0)
	dir := t.TempDir()
	ds, err := OpenDurable(dir, d, initial, durableTestOptions(),
		DurableOptions{SyncEveryBatch: true, SegmentBytes: 256, KeepCheckpoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durableTestBatches(rng, initial, 40, d) {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	before := len(walSegments(t, dir))
	seq, err := ds.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 40 {
		t.Fatalf("checkpoint covered seq %d, want 40", seq)
	}
	if after := len(walSegments(t, dir)); after >= before {
		t.Fatalf("checkpoint pruned nothing: %d -> %d segments", before, after)
	}
	// More writes after the checkpoint, then crash.
	post := durableTestBatches(rand.New(rand.NewSource(54)), nil, 5, d)
	for _, b := range post {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	want := engineState(t, ds.store.d.f)
	// no Close: crash
	re, err := OpenDurable(dir, 0, nil, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engineState(t, re.store.d.f), want) {
		t.Fatal("recovery from checkpoint + pruned log diverged")
	}
	if re.LastSeq() != 45 {
		t.Fatalf("LastSeq after recovery = %d, want 45", re.LastSeq())
	}
	// Numbering continues past the checkpoint even with old segments gone.
	if err := re.ApplyBatch(post[0]); err != nil {
		t.Fatal(err)
	}
	if re.LastSeq() != 46 {
		t.Fatalf("LastSeq after post-recovery write = %d, want 46", re.LastSeq())
	}
	// The directory was reopened without SyncEveryBatch, so it now runs the
	// deferred policy: ingest, a second checkpoint and prune, a crash-gap
	// tail made durable only by Sync, then a crash. The second recovery must
	// land on the live state byte for byte.
	more := durableTestBatches(rand.New(rand.NewSource(55)), nil, 20, d)
	for _, b := range more[:15] {
		if err := re.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, b := range more[15:] {
		if err := re.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	want = engineState(t, re.store.d.f)
	// no Close: crash
	re2, err := OpenDurable(dir, 0, nil, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if !bytes.Equal(engineState(t, re2.store.d.f), want) {
		t.Fatal("recovery after reopening under the deferred sync policy diverged")
	}
	if re2.LastSeq() != 66 {
		t.Fatalf("LastSeq after second recovery = %d, want 66", re2.LastSeq())
	}
}

func TestDurableStoreRejectsInvalidBatchWithoutLogging(t *testing.T) {
	d := 3
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(59))
	ds, err := OpenDurable(dir, d, durableTestPoints(rng, 30, d, 0), durableTestOptions(),
		DurableOptions{SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	bad := []Update{Ins(Point{ID: 99, Values: []float64{1, 2}})} // wrong dim
	if err := ds.ApplyBatch(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if ds.LastSeq() != 0 {
		t.Fatalf("invalid batch was logged: LastSeq = %d", ds.LastSeq())
	}
	// Unknown-id delete: no-op, not logged.
	if err := ds.Delete(123456); err != nil {
		t.Fatal(err)
	}
	if ds.LastSeq() != 0 {
		t.Fatal("no-op delete was logged")
	}
}

func TestOpenDurableErrorsWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Fabricate a directory with a segment but no checkpoint.
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", 1)), []byte("FDRMSWL1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, 2, nil, Options{}, DurableOptions{}); err == nil {
		t.Fatal("OpenDurable succeeded with no recoverable base state")
	}
}

// A corrupt newest checkpoint must degrade recovery to the previous one —
// and because Checkpoint prunes the log only up to the OLDEST retained
// checkpoint, every batch after the fallback is still on disk, so the
// recovered state is still exactly the pre-crash state.
func TestDurableStoreFallbackToOlderCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := 3
	initial := durableTestPoints(rng, 50, d, 0)
	dir := t.TempDir()
	ds, err := OpenDurable(dir, d, initial, durableTestOptions(),
		DurableOptions{SyncEveryBatch: true, SegmentBytes: 256, KeepCheckpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	batches := durableTestBatches(rng, initial, 30, d)
	for i, b := range batches {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if i == 9 || i == 19 {
			if _, err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := engineState(t, ds.store.d.f)
	// Crash; then the newest checkpoint file turns out damaged.
	var newest string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "checkpoint-") && e.Name() > newest {
			newest = e.Name()
		}
	}
	path := filepath.Join(dir, newest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, 0, nil, Options{}, DurableOptions{})
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	defer re.Close()
	if !bytes.Equal(engineState(t, re.store.d.f), want) {
		t.Fatal("fallback recovery did not reproduce the pre-crash state")
	}
	if re.LastSeq() != 30 {
		t.Fatalf("LastSeq = %d, want 30", re.LastSeq())
	}
}

// Batches missing between the checkpoint and the surviving log must fail
// recovery loudly — silently skipping acknowledged updates is the one thing
// a durable store may never do.
func TestOpenDurableDetectsLogGap(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	d := 3
	initial := durableTestPoints(rng, 40, d, 0)
	dir := t.TempDir()
	ds, err := OpenDurable(dir, d, initial, durableTestOptions(),
		DurableOptions{SyncEveryBatch: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durableTestBatches(rng, initial, 20, d) {
		if err := ds.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %v", segs)
	}
	// Lose the first segment: batches 1..k vanish while the genesis
	// checkpoint (seq 0) expects batch 1 first.
	if err := os.Remove(filepath.Join(dir, segs[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, 0, nil, Options{}, DurableOptions{}); err == nil {
		t.Fatal("recovery succeeded across a log gap")
	} else if !strings.Contains(err.Error(), "gap") {
		t.Fatalf("expected a gap error, got: %v", err)
	}
}

// copyTree clones a durability directory so recovery can be exercised
// against a frozen "crash image" while the original store keeps running.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Auto-checkpointing (CheckpointEveryOps) must behave exactly like a caller
// scheduling Checkpoint by hand: checkpoints advance without any manual
// call, and a crash after auto-checkpoints recovers to the same state as an
// uninterrupted run — and as a manually checkpointed twin.
func TestDurableStoreAutoCheckpointEveryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	d := 3
	initial := durableTestPoints(rng, 60, d, 0)
	batches := durableTestBatches(rng, initial, 24, d)

	autoDir, manualDir := t.TempDir(), t.TempDir()
	auto, err := OpenDurable(autoDir, d, initial, durableTestOptions(),
		DurableOptions{SyncEveryBatch: true, CheckpointEveryOps: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	manual, err := OpenDurable(manualDir, d, initial, durableTestOptions(),
		DurableOptions{SyncEveryBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer manual.Close()
	ref, err := NewDynamic(d, initial, durableTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	sinceManual := 0
	for i, b := range batches {
		if err := auto.ApplyBatch(b); err != nil {
			t.Fatalf("auto batch %d: %v", i, err)
		}
		if err := manual.ApplyBatch(b); err != nil {
			t.Fatalf("manual batch %d: %v", i, err)
		}
		if err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if sinceManual += len(b); sinceManual >= 10 {
			sinceManual = 0
			if _, err := manual.Checkpoint(); err != nil {
				t.Fatalf("manual checkpoint after batch %d: %v", i, err)
			}
		}
	}

	// Checkpoints advanced without any manual Checkpoint call on auto.
	autoSeq, _, ok, err := wal.NewestCheckpoint(autoDir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint in auto dir: ok=%v err=%v", ok, err)
	}
	if autoSeq == 0 {
		t.Fatal("auto store never checkpointed past genesis")
	}

	want := engineState(t, ref.f)
	//fdrms:orderinvariant each crash image recovers into its own TempDir and is checked independently
	for name, dir := range map[string]string{"auto": autoDir, "manual": manualDir} {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		re, err := OpenDurable(crash, 0, nil, Options{}, DurableOptions{})
		if err != nil {
			t.Fatalf("%s: recovering crash image: %v", name, err)
		}
		if got := engineState(t, re.store.d.f); !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered state differs from the uninterrupted run", name)
		}
		// Recovery must keep accepting writes.
		for _, b := range durableTestBatches(rand.New(rand.NewSource(99)), nil, 4, d) {
			if err := re.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		re.Close()
	}
}

// A write the log failed must never come back: once a log write fails, the
// store refuses every later write, even after the fault is gone, and keeps
// serving the last committed generation.
func TestDurableStoreFailStopAfterLogError(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := 3
	initial := durableTestPoints(rng, 40, d, 0)
	dir := filepath.Join(t.TempDir(), "wal")
	ds, err := OpenDurable(dir, d, initial, durableTestOptions(),
		DurableOptions{SyncEveryBatch: true, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	batches := durableTestBatches(rng, initial, 3, d)
	if err := ds.ApplyBatch(batches[0]); err != nil {
		t.Fatal(err)
	}
	before := ds.Current().ID()
	// Every append rotates, so with the directory gone the next one cannot
	// create its segment.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := ds.ApplyBatch(batches[1]); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("write into a removed directory: %v, want ErrLogFailed", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ds.ApplyBatch(batches[2]); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("write after the log failed: %v, want ErrLogFailed", err)
	}
	if _, err := ds.Checkpoint(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("checkpoint after the log failed: %v, want ErrLogFailed", err)
	}
	if err := ds.Err(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("Err = %v, want ErrLogFailed", err)
	}
	if g := ds.Current(); g.ID() != before || len(g.Result()) == 0 {
		t.Fatalf("serving generation %d with %d results, want %d unchanged", g.ID(), len(g.Result()), before)
	}
}
