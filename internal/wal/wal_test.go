package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"fdrms/internal/geom"
	"fdrms/internal/topk"
)

// testBatch builds a deterministic mixed batch whose shape varies with i.
func testBatch(i int) []topk.Op {
	ops := []topk.Op{
		topk.InsertOp(geom.Point{ID: 10*i + 1, Coords: geom.Vector{0.1 * float64(i), 0.5, 0.25}}),
		topk.InsertOp(geom.Point{ID: 10*i + 2, Coords: geom.Vector{0.9, 0.01 * float64(i), 0}}),
	}
	if i%2 == 0 {
		ops = append(ops, topk.DeleteOp(10*(i-1)+1))
	}
	return ops
}

func TestOpsRoundTrip(t *testing.T) {
	batches := [][]topk.Op{
		nil,
		{topk.DeleteOp(-7)},
		{topk.InsertOp(geom.Point{ID: 0, Coords: geom.Vector{}})},
		testBatch(1), testBatch(2), testBatch(3),
	}
	for i, ops := range batches {
		payload := AppendOps(nil, uint64(i+1), ops)
		seq, got, err := DecodeOps(payload)
		if err != nil {
			t.Fatalf("batch %d: decode: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("batch %d: seq %d, want %d", i, seq, i+1)
		}
		if len(got) != len(ops) {
			t.Fatalf("batch %d: %d ops, want %d", i, len(got), len(ops))
		}
		for j := range ops {
			if !reflect.DeepEqual(normalizeOp(got[j]), normalizeOp(ops[j])) {
				t.Fatalf("batch %d op %d: %+v != %+v", i, j, got[j], ops[j])
			}
		}
	}
}

// normalizeOp maps empty and nil coordinate slices to one representation.
func normalizeOp(op topk.Op) topk.Op {
	if !op.Delete && len(op.Point.Coords) == 0 {
		op.Point.Coords = nil
	}
	return op
}

func TestDecodeOpsRejectsDamage(t *testing.T) {
	payload := AppendOps(nil, 7, testBatch(2))
	cases := map[string][]byte{
		"empty":        {},
		"short header": payload[:6],
		"trailing":     append(append([]byte{}, payload...), 0xAB),
		"bad kind":     flipByte(payload, 12), // first op's kind byte
		"truncated":    payload[:len(payload)-3],
	}
	// A count larger than the payload can back.
	huge := AppendU64(nil, 1)
	huge = AppendU32(huge, 1<<30)
	cases["huge count"] = huge
	//fdrms:orderinvariant each corruption case is asserted independently
	for name, data := range cases {
		if _, _, err := DecodeOps(data); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xFF
	return out
}

// appendN appends batches i in [from, to) and returns the expected batches.
func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		seq, err := l.Append(testBatch(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
}

// replayAll collects every batch with seq > after.
func replayAll(t *testing.T, l *Log, after uint64) map[uint64][]topk.Op {
	t.Helper()
	got := map[uint64][]topk.Op{}
	err := l.Replay(after, func(seq uint64, ops []topk.Op) error {
		got[seq] = ops
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestLogAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 6)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", l.LastSeq())
	}
	appendN(t, l, 6, 9)
	got := replayAll(t, l, 3)
	if len(got) != 5 {
		t.Fatalf("replayed %d batches, want 5", len(got))
	}
	for i := 4; i <= 8; i++ {
		want := testBatch(i)
		if !reflect.DeepEqual(got[uint64(i)], want) {
			t.Fatalf("batch %d mismatch: %+v != %+v", i, got[uint64(i)], want)
		}
	}
}

func TestLogRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every batch or two forces a rotation.
	l, err := Open(dir, Options{SegmentBytes: 128, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 20)
	names, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected several segments, got %v", names)
	}
	if got := replayAll(t, l, 0); len(got) != 19 {
		t.Fatalf("replayed %d batches, want 19", len(got))
	}

	// A checkpoint at seq 10 makes every fully-covered segment removable.
	if err := l.Prune(10); err != nil {
		t.Fatal(err)
	}
	pruned, _ := segments(dir)
	if len(pruned) >= len(names) {
		t.Fatalf("prune removed nothing: %d -> %d segments", len(names), len(pruned))
	}
	got := replayAll(t, l, 10)
	for i := 11; i < 20; i++ {
		if !reflect.DeepEqual(got[uint64(i)], testBatch(i)) {
			t.Fatalf("post-prune batch %d missing or wrong", i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after pruning: numbering continues.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LastSeq() != 19 {
		t.Fatalf("LastSeq after reopen = %d, want 19", l.LastSeq())
	}
}

func TestTornTailTruncation(t *testing.T) {
	// Build a clean log, then chop bytes off the last segment at every
	// offset inside the final record: Open must land on the durable prefix.
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	cleanLen := l.size
	appendN(t, l, 4, 5) // the final record
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := cleanLen; cut < int64(len(full)); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open with tail cut at %d: %v", cut, err)
			}
			if l.LastSeq() != 3 {
				t.Fatalf("cut %d: LastSeq = %d, want 3 (durable prefix)", cut, l.LastSeq())
			}
			if got := replayAll(t, l, 0); len(got) != 3 {
				t.Fatalf("cut %d: replayed %d, want 3", cut, len(got))
			}
			// The log must keep working after repair.
			if seq, err := l.Append(testBatch(4)); err != nil || seq != 4 {
				t.Fatalf("cut %d: append after repair: seq %d err %v", cut, seq, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, full, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCorruptionInOlderSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 96, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(dir)
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %v", segs)
	}
	path := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xFF // damage inside the first (older) segment
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupted older segment")
	}
}

func TestCheckpointRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := NewestCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	payloads := map[uint64][]byte{
		0:  []byte("genesis"),
		10: bytes.Repeat([]byte{0xA5}, 1000),
		25: []byte("newest"),
	}
	//fdrms:orderinvariant NewestCheckpoint scans the directory for the max seq; write order immaterial
	for seq, p := range payloads {
		if err := WriteCheckpoint(dir, seq, p); err != nil {
			t.Fatal(err)
		}
	}
	seq, payload, ok, err := NewestCheckpoint(dir)
	if err != nil || !ok || seq != 25 || !bytes.Equal(payload, payloads[25]) {
		t.Fatalf("newest: seq=%d ok=%v err=%v", seq, ok, err)
	}

	// Corrupt the newest: recovery falls back to seq 10.
	path := filepath.Join(dir, ckptName(25))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok, err = NewestCheckpoint(dir)
	if err != nil || !ok || seq != 10 || !bytes.Equal(payload, payloads[10]) {
		t.Fatalf("fallback: seq=%d ok=%v err=%v", seq, ok, err)
	}

	// Truncated newest (torn write that dodged the atomic rename) also falls
	// back.
	if err := os.WriteFile(path, data[:ckptHdrLen-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, _, ok, _ := NewestCheckpoint(dir); !ok || seq != 10 {
		t.Fatalf("truncated fallback: seq=%d ok=%v", seq, ok)
	}

	if err := PruneCheckpoints(dir, 1); err != nil {
		t.Fatal(err)
	}
	names, _ := checkpointFiles(dir)
	if len(names) != 1 {
		t.Fatalf("after prune: %v", names)
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	if ok, err := HasState(filepath.Join(dir, "missing")); err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
	if ok, err := HasState(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if err := WriteCheckpoint(dir, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if ok, err := HasState(dir); err != nil || !ok {
		t.Fatalf("dir with checkpoint: ok=%v err=%v", ok, err)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 3)
	// One insert whose coordinates alone exceed the record limit: the append
	// must fail up front — an oversized record would be unreadable (treated
	// as a torn tail) at recovery.
	huge := topk.InsertOp(geom.Point{ID: 9, Coords: make(geom.Vector, maxRecordBytes/8+1)})
	if _, err := l.Append([]topk.Op{huge}); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d after rejected append, want 2", l.LastSeq())
	}
	// The log must remain fully usable and replayable.
	appendN(t, l, 3, 5)
	if got := replayAll(t, l, 0); len(got) != 4 {
		t.Fatalf("replayed %d batches, want 4", len(got))
	}
}

func TestLogFailStopAfterSyncError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 4)
	if err := l.w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Close the segment under the log, so its next fsync fails as a failing
	// disk's would.
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	syncErr := l.Sync()
	if syncErr == nil {
		t.Fatal("Sync of a closed segment succeeded")
	}
	// Whether the unsynced records survive is unknown, so nothing may be
	// written after them.
	if seq, err := l.Append(testBatch(4)); !errors.Is(err, syncErr) {
		t.Fatalf("Append after a failed sync: seq %d err %v, want %v", seq, err, syncErr)
	}
	if err := l.Sync(); !errors.Is(err, syncErr) {
		t.Fatalf("Sync after a failed sync: %v, want %v", err, syncErr)
	}
	if err := l.Close(); !errors.Is(err, syncErr) {
		t.Fatalf("Close of a failed log: %v, want %v", err, syncErr)
	}
	// Recovery reads the disk and decides: the flushed records are there.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LastSeq() != 3 {
		t.Fatalf("LastSeq after reopen = %d, want 3", l.LastSeq())
	}
}

func TestReplayChecksCRCOfSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 96, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 6)
	segs, _ := segments(dir)
	if len(segs) < 2 {
		t.Fatalf("need a sealed segment, got %v", segs)
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first coordinate of the first record: header, seq, op count, kind,
	// id and dim come before it.
	data[len(segMagic)+recHdrBytes+8+4+1+8+4] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(0, func(uint64, []topk.Op) error { return nil }); err == nil {
		t.Fatal("Replay accepted a record whose CRC no longer matches")
	}
}

func TestPruneTrustsSuccessorName(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 4)
	// A header-only successor: named after seq 4, holding no record yet.
	if err := l.rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Prune(2); err != nil {
		t.Fatal(err)
	}
	if segs, _ := segments(dir); len(segs) != 2 {
		t.Fatalf("Prune(2) left %v, want both segments (seq 3 is not covered)", segs)
	}
	if err := l.Prune(3); err != nil {
		t.Fatal(err)
	}
	if segs, _ := segments(dir); len(segs) != 1 || segs[0] != segName(4) {
		t.Fatalf("Prune(3) left %v, want only %s", segs, segName(4))
	}
}

func TestSyncDirReportsAllButUnsupported(t *testing.T) {
	cases := []struct {
		err         error
		unsupported bool
	}{
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EINVAL}, true},
		{fmt.Errorf("sync d: %w", syscall.ENOTSUP), true},
		{fmt.Errorf("sync d: %w", errors.ErrUnsupported), true},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EIO}, false},
		{fmt.Errorf("sync d: %w", syscall.ENOSPC), false},
	}
	for _, c := range cases {
		if got := syncUnsupported(c.err); got != c.unsupported {
			t.Errorf("syncUnsupported(%v) = %v, want %v", c.err, got, c.unsupported)
		}
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir of a fresh directory: %v", err)
	}
}
