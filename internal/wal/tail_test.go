package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fdrms/internal/geom"
	"fdrms/internal/topk"
)

// frameRecord appends one fully framed record (header + CRC + payload) for a
// hand-built segment.
func frameRecord(buf []byte, seq uint64, ops []topk.Op) []byte {
	payload := AppendOps(nil, seq, ops)
	var hdr [recHdrBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// drain polls until the tailer reports caught-up or an error, returning the
// total records consumed and the terminal error (nil when caught up).
func drain(t *testing.T, tl *Tailer) (int, error) {
	t.Helper()
	total := 0
	for i := 0; i < 10000; i++ {
		_, n, err := tl.Poll(64)
		total += n
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
	}
	t.Fatal("tailer did not converge in 10000 polls")
	return 0, nil
}

func TestTailerFollowsLiveLogAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tl := NewTailer(dir, 0, nil)
	var got []topk.Op
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(testBatchF(i)); err != nil {
			t.Fatal(err)
		}
		// Interleave: poll after every append, like a live follower.
		ops, _, err := tl.Poll(1 << 20)
		if err != nil {
			t.Fatalf("poll after append %d: %v", i, err)
		}
		got = append(got, ops...)
	}
	if names, _ := segments(dir); len(names) < 2 {
		t.Fatalf("expected rotations, got %d segments", len(names))
	}
	if tl.LastSeq() != 40 || len(got) != 40 {
		t.Fatalf("tailed to seq %d with %d ops, want 40/40", tl.LastSeq(), len(got))
	}
	for i, op := range got {
		if op.Point.ID != i+1 {
			t.Fatalf("op %d has id %d, want %d (order broken)", i, op.Point.ID, i+1)
		}
	}
	// Caught up: clean empty poll.
	if _, n, err := tl.Poll(64); err != nil || n != 0 {
		t.Fatalf("caught-up poll: n=%d err=%v, want 0/nil", n, err)
	}
}

func TestTailerTornActiveTailIsPendingThenResumes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(testBatchF(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segments(dir)
	path := filepath.Join(dir, names[0])
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record: a header promising more bytes than the file holds.
	torn := append(append([]byte{}, clean...), 0xFF, 0x00, 0x00, 0x00, 0xEE, 0xEE)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	tl := NewTailer(dir, 0, nil)
	// Progress-first: the valid prefix arrives with no error...
	_, n, err := tl.Poll(1 << 20)
	if err != nil || n != 3 {
		t.Fatalf("first poll: n=%d err=%v, want 3/nil", n, err)
	}
	// ...and only the empty follow-up classifies the tail as pending.
	_, n, err = tl.Poll(1 << 20)
	var pend *PendingError
	if n != 0 || !errors.As(err, &pend) {
		t.Fatalf("torn active tail: n=%d err=%v, want PendingError", n, err)
	}

	// The primary finishes the write (here: the torn bytes become a full
	// record): the follower resumes with no resync.
	fixed := frameRecord(append([]byte{}, clean...), 4, testBatchF(4))
	if err := os.WriteFile(path, fixed, 0o644); err != nil {
		t.Fatal(err)
	}
	ops, n, err := tl.Poll(1 << 20)
	if err != nil || n != 1 || len(ops) != 1 || tl.LastSeq() != 4 {
		t.Fatalf("post-repair poll: n=%d err=%v lastSeq=%d, want 1/nil/4", n, err, tl.LastSeq())
	}
}

func TestTailerSealedSegmentDamageIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(testBatchF(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segments(dir)
	if len(names) < 2 {
		t.Fatalf("need rotations, got %d segments", len(names))
	}
	// Flip one payload byte in the FIRST (sealed) segment.
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte{}, data...)
	damaged[len(damaged)-1] ^= 0x01
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	tl := NewTailer(dir, 0, nil)
	_, cerr := drain(t, tl)
	var corrupt *CorruptError
	if !errors.As(cerr, &corrupt) {
		t.Fatalf("sealed-segment damage: err=%v, want CorruptError", cerr)
	}
	if corrupt.Segment != names[0] {
		t.Fatalf("corruption blamed on %s, want %s", corrupt.Segment, names[0])
	}

	// The fault heals (operator restores the segment): tailing resumes from
	// the quarantine point and converges.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if total, err := drain(t, tl); err != nil || tl.LastSeq() != 10 {
		t.Fatalf("after heal: consumed %d err=%v lastSeq=%d, want lastSeq 10", total, err, tl.LastSeq())
	}
}

func TestTailerSeqGapUnderValidCRCIsCorruption(t *testing.T) {
	dir := t.TempDir()
	seg := []byte(segMagic)
	seg = frameRecord(seg, 1, testBatchF(1))
	seg = frameRecord(seg, 3, testBatchF(3)) // 2 is missing
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0, nil)
	total, err := drain(t, tl)
	var corrupt *CorruptError
	if total != 1 || !errors.As(err, &corrupt) {
		t.Fatalf("seq gap: consumed %d err=%v, want 1 record then CorruptError", total, err)
	}
}

func TestTailerReportsGapWhenPositionPruned(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 12; i++ {
		if _, err := l.Append(testBatchF(i)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := segments(dir)
	if len(names) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(names))
	}
	// A fresh follower positioned before the first surviving record, after
	// the log pruned everything a checkpoint covered.
	last := l.LastSeq()
	if err := l.Prune(last); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0, nil)
	_, _, err = tl.Poll(64)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("pruned-behind poll: err=%v, want GapError", err)
	}
	if gap.Need != 1 {
		t.Fatalf("gap.Need = %d, want 1", gap.Need)
	}

	// A follower already past the prune horizon keeps tailing untouched.
	tl2 := NewTailer(dir, last, nil)
	if _, n, err := tl2.Poll(64); err != nil || n != 0 {
		t.Fatalf("caught-up follower after prune: n=%d err=%v", n, err)
	}
}

func TestTailerMidTailPruneSurfacesAsGap(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 12; i++ {
		if _, err := l.Append(testBatchF(i)); err != nil {
			t.Fatal(err)
		}
	}
	tl := NewTailer(dir, 0, nil)
	// Consume only the first record, leaving the cursor in the oldest
	// segment.
	if _, n, err := tl.Poll(1); err != nil || n != 1 {
		t.Fatalf("first poll: n=%d err=%v", n, err)
	}
	if err := l.Prune(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	_, _, err = tl.Poll(64)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("mid-tail prune: err=%v, want GapError", err)
	}
}

func TestTailerDetectsRewrittenHistory(t *testing.T) {
	dir := t.TempDir()
	seg := []byte(segMagic)
	seg = frameRecord(seg, 1, testBatchF(1))
	withTwo := frameRecord(append([]byte{}, seg...), 2, testBatchF(2))
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, withTwo, 0o644); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0, nil)
	if total, err := drain(t, tl); err != nil || total != 2 {
		t.Fatalf("initial drain: %d records err=%v", total, err)
	}
	// The primary crashes, loses record 2 (it was never synced), restarts,
	// and writes a DIFFERENT record 2. Same seq, same offset, different
	// bytes.
	rewritten := frameRecord(append([]byte{}, seg...), 2, testBatchF(99))
	if err := os.WriteFile(path, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := tl.Poll(64)
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("rewritten history: err=%v, want GapError (forces resync)", err)
	}
}

func TestTailerHeaderOnlyActiveSegmentIsCaughtUp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0, nil)
	if _, n, err := tl.Poll(64); err != nil || n != 0 {
		t.Fatalf("header-only active segment: n=%d err=%v, want clean caught-up", n, err)
	}
}

func TestTailerMissingDirectoryIsPending(t *testing.T) {
	tl := NewTailer(filepath.Join(t.TempDir(), "not-yet"), 0, nil)
	_, _, err := tl.Poll(64)
	var pend *PendingError
	if !errors.As(err, &pend) {
		t.Fatalf("missing dir: err=%v, want PendingError", err)
	}
}

func TestPruneKeepsLastNSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, SyncEveryAppend: true, RetainSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 20; i++ {
		if _, err := l.Append(testBatchF(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := segments(dir)
	if len(before) <= 3 {
		t.Fatalf("need > 3 segments, got %d", len(before))
	}
	if err := l.Prune(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	after, _ := segments(dir)
	if len(after) != 3 {
		t.Fatalf("RetainSegments=3 left %d segments, want 3", len(after))
	}
}

// hideFS hides one file name from an FS — the minimal fault layer for
// checkpoint fallback (the full FaultFS lives in internal/replica).
type hideFS struct {
	inner FS
	name  string
}

func (h hideFS) ReadDir(dir string) ([]string, error) {
	names, err := h.inner.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if n != h.name {
			out = append(out, n)
		}
	}
	return out, nil
}

func (h hideFS) ReadFile(path string) ([]byte, error) {
	if filepath.Base(path) == h.name {
		return nil, os.ErrNotExist
	}
	return h.inner.ReadFile(path)
}

func TestNewestCheckpointFSFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, 5, []byte("old-state")); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, 9, []byte("new-state")); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok, err := NewestCheckpointFS(nil, dir)
	if err != nil || !ok || seq != 9 || string(payload) != "new-state" {
		t.Fatalf("newest: seq=%d ok=%v err=%v", seq, ok, err)
	}
	// Newest hidden (delayed visibility): fall back to the older one, like
	// recovery does for corrupt files.
	seq, payload, ok, err = NewestCheckpointFS(hideFS{inner: OSFS{}, name: ckptName(9)}, dir)
	if err != nil || !ok || seq != 5 || string(payload) != "old-state" {
		t.Fatalf("fallback: seq=%d ok=%v err=%v", seq, ok, err)
	}
	// Corrupt newest on disk: same fallback through the FS-routed reader.
	if err := os.WriteFile(filepath.Join(dir, ckptName(9)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	seq, _, ok, err = NewestCheckpointFS(nil, dir)
	if err != nil || !ok || seq != 5 {
		t.Fatalf("corrupt-newest fallback: seq=%d ok=%v err=%v", seq, ok, err)
	}
	// Nothing at all.
	_, _, ok, err = NewestCheckpointFS(nil, filepath.Join(dir, "missing"))
	if err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

func TestTailerUsesTestBatchOps(t *testing.T) {
	// Guard the assumption the other tests lean on: testBatchF(i) produces
	// exactly one insert with ID i.
	ops := testBatchF(7)
	if len(ops) != 1 || ops[0].Delete || ops[0].Point.ID != 7 {
		t.Fatalf("testBatchF shape changed: %+v", ops)
	}
	_ = geom.Point{}
}
