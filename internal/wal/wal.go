// Package wal is the durability layer of the dynamic k-RMS store: a
// write-ahead log of update batches plus checkpoint snapshot files.
//
// The log is a directory of segment files, each
//
//	wal-<16-hex-digit first seq>.seg
//
// holding an 8-byte magic header followed by length-prefixed records:
//
//	u32  payload length
//	u32  CRC-32C (Castagnoli) of the payload
//	payload (see codec.go: one update batch, carrying its own seq)
//
// Records never span segments; a segment whose size exceeds the rotation
// threshold is closed and a new one started. Sequence numbers are assigned
// by the log, start at 1, and increase by exactly 1 per appended batch —
// a gap or repeat found during recovery is corruption, not a torn tail.
//
// Recovery semantics (Open): every segment is scanned front to back. A
// record that fails its length or CRC check in the NEWEST segment is a torn
// tail — the bytes a crash cut short — and the segment is truncated to the
// last valid record, which is exactly the durable prefix. The same damage
// in an older segment cannot be a torn write (older segments are only ever
// closed after a clean final record) and aborts recovery with an error.
// Open, Replay and the tailer (tail.go) parse records with one function,
// readRecord, and differ only in what damage means: a torn tail to Open, an
// error to Replay, a pending write or corruption to the tailer.
//
// Checkpoint snapshot files (checkpoint.go) live in the same directory;
// Prune removes the segments a checkpoint has made redundant.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"fdrms/internal/topk"
)

const (
	segMagic    = "FDRMSWL1"
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	recHdrBytes = 8 // u32 length + u32 crc

	// maxRecordBytes bounds a single record's payload: a length prefix above
	// it is treated as corruption (or a torn tail) rather than allocated.
	maxRecordBytes = 64 << 20

	// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 8 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// SegmentBytes is the size a segment may reach before the next append
	// rotates to a fresh file. Zero means DefaultSegmentBytes.
	SegmentBytes int64

	// SyncEveryAppend fsyncs after every appended batch: nothing acknowledged
	// is ever lost, at the cost of one fsync per batch.
	SyncEveryAppend bool

	// SyncInterval, when SyncEveryAppend is false, bounds how stale the
	// durable prefix may grow: an append fsyncs when this much time has
	// passed since the last sync. Zero defers syncing to rotation and Close.
	SyncInterval time.Duration

	// RetainSegments, when positive, keeps at least this many of the newest
	// segment files through Prune regardless of checkpoint coverage — a
	// cushion for followers tailing the directory. Zero keeps only what
	// checkpoints require.
	RetainSegments int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Log is an append-only, CRC-checked, segmented record log. It is not safe
// for concurrent use; the durable store serializes writers.
type Log struct {
	dir string
	opt Options

	f        *os.File      // active segment (nil until the first append)
	w        *bufio.Writer // buffered writer over f
	size     int64         // bytes in the active segment, header included
	next     uint64        // seq of the next appended batch
	dirty    bool          // unsynced appends pending
	lastSync time.Time

	enc []byte // payload scratch, reused across appends

	// failed is the first write, flush, fsync, rotate or directory-sync
	// error. Once set, Append and Sync return it: the failed record may or
	// may not be on disk, so nothing may be written after it.
	failed error

	// met, when set, mirrors append/sync/rotation traffic into obs handles
	// (see metrics.go). Written only via SetMetrics.
	met *Metrics
}

// segName returns the file name of a segment whose first record is seq.
func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }

// nameSeq parses the seq a segment or checkpoint file name encodes.
func nameSeq(name, prefix, suffix string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, prefix+"%016x"+suffix, &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// FS is the read side of the filesystem: every directory listing of this
// package, and every file the tailer and the checkpoint finder read, goes
// through it. The production implementation is OSFS; tests and the bench
// inject fault layers. Implementations must be safe for concurrent use.
type FS interface {
	// ReadDir lists the file names in dir (directories excluded).
	ReadDir(dir string) ([]string, error)
	// ReadFile returns the current contents of path.
	ReadFile(path string) ([]byte, error)
}

// OSFS is the passthrough FS over the real filesystem.
type OSFS struct{}

// ReadDir lists the plain files in dir.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// ReadFile reads path in full.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// list returns the names in dir with the given prefix and suffix, sorted:
// the fixed-width hex seq in every name makes that seq order.
func list(fs FS, dir, prefix, suffix string) ([]string, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, n := range ents {
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// segments lists the segment file names in dir, in seq order.
func segments(dir string) ([]string, error) { return list(OSFS{}, dir, segPrefix, segSuffix) }

// Open scans (and, for the newest segment, repairs) the log in dir, creating
// the directory if needed, and returns a log positioned to append after the
// last durable record. LastSeq reports what survived.
func Open(dir string, opt Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt.withDefaults(), next: 1, lastSync: time.Now()}
	names, err := segments(dir)
	if err != nil {
		return nil, err
	}
	expect := uint64(0) // last seq seen; 0 = none yet
	for i, name := range names {
		path := filepath.Join(dir, name)
		last := i == len(names)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		lastSeq, valid, damage, err := scanSegment(data, expect)
		if err == nil && damage != nil && !last {
			// Tail damage is only repairable on the newest segment; anywhere
			// else it is corruption.
			err = fmt.Errorf("offset %d: %w", valid, damage)
		}
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		expect = lastSeq
		if last {
			if valid < int64(len(segMagic)) {
				// The crash tore even the header write: the segment holds
				// nothing durable. Drop it; the next append starts a fresh one.
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				if err := syncDir(dir); err != nil {
					return nil, err
				}
				break
			}
			// Truncate the torn tail (a no-op when the segment ended cleanly)
			// and reopen for appending.
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, err
			}
			st, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, err
			}
			if st.Size() > valid {
				if err := f.Truncate(valid); err != nil {
					f.Close()
					return nil, err
				}
				if err := f.Sync(); err != nil {
					f.Close()
					return nil, err
				}
			}
			if _, err := f.Seek(valid, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			l.f = f
			l.w = bufio.NewWriter(f)
			l.size = valid
		}
	}
	if expect > 0 {
		l.next = expect + 1
	}
	return l, nil
}

// errSegmentHeader is the damage of a segment whose magic header is missing
// or short; a crash can tear even the header write of a fresh segment.
var errSegmentHeader = errors.New("missing or short segment header")

// record is one framed record, as readRecord parses it.
type record struct {
	seq uint64
	ops []topk.Op
	crc uint32 // the header's CRC field, set whenever the header is whole
	end int64  // offset just past the record
}

// readRecord parses the record that starts at off in a segment's bytes. It
// is the only reader of the record frame: the length prefix must be in
// bounds, and the payload must match its CRC-32C and decode. The error names
// the damage; what the damage means (a torn tail, a write still in flight,
// corruption) is each caller's own rule.
func readRecord(data []byte, off int64) (r record, err error) {
	if int64(len(data))-off < recHdrBytes {
		return r, errors.New("short record header")
	}
	plen := int64(binary.LittleEndian.Uint32(data[off:]))
	r.crc = binary.LittleEndian.Uint32(data[off+4:])
	r.end = off + recHdrBytes + plen
	if plen == 0 || plen > maxRecordBytes || r.end > int64(len(data)) {
		return r, errors.New("record length out of bounds")
	}
	payload := data[off+recHdrBytes : r.end]
	if crc32.Checksum(payload, crcTable) != r.crc {
		return r, errors.New("payload CRC mismatch")
	}
	r.seq, r.ops, err = DecodeOps(payload)
	return r, err
}

// scanSegment walks one segment's bytes through readRecord and checks seq
// continuity from prevSeq, the last seq before the segment (0: none). It
// returns the last seq, the offset just past the last valid record, and the
// damage that ended the walk early (nil when the segment ended cleanly);
// whether that damage is a torn tail is Open's rule. A seq gap is err: a torn
// write cannot fabricate a valid CRC around the wrong seq, so a gap is always
// corruption.
func scanSegment(data []byte, prevSeq uint64) (last uint64, valid int64, damage, err error) {
	if !bytes.HasPrefix(data, []byte(segMagic)) {
		return prevSeq, 0, errSegmentHeader, nil
	}
	last, valid = prevSeq, int64(len(segMagic))
	for valid < int64(len(data)) {
		r, derr := readRecord(data, valid)
		if derr != nil {
			return last, valid, derr, nil
		}
		if last != 0 && r.seq != last+1 {
			return last, valid, nil, fmt.Errorf("sequence gap: record %d follows %d", r.seq, last)
		}
		last, valid = r.seq, r.end
	}
	return last, valid, nil, nil
}

// LastSeq returns the seq of the last appended (or recovered) batch; 0 when
// the log is empty.
func (l *Log) LastSeq() uint64 { return l.next - 1 }

// EnsureNextSeq raises the next assigned seq to at least min. The durable
// store calls this after loading a checkpoint newer than every surviving
// segment (all were pruned), so new appends continue the numbering the
// checkpoint recorded instead of reusing it.
func (l *Log) EnsureNextSeq(min uint64) {
	if l.next < min {
		l.next = min
	}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Err returns the error that failed the log (see Append), or nil.
func (l *Log) Err() error { return l.failed }

// fail records err as the log's failure unless an earlier one is recorded.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = err
	}
	return err
}

// Append encodes one update batch as a record, writes it to the active
// segment (rotating first when the segment is full), applies the sync
// policy, and returns the batch's seq. A write, flush, fsync or rotation
// error fails the log: every later Append and Sync returns that error.
func (l *Log) Append(ops []topk.Op) (uint64, error) {
	if l.failed != nil {
		return 0, l.failed
	}
	if l.f == nil || l.size >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, l.fail(err)
		}
	}
	seq := l.next
	l.enc = AppendOps(l.enc[:0], seq, ops)
	if len(l.enc) > maxRecordBytes {
		// Never write a record recovery would refuse to read: scanSegment
		// treats an oversized length prefix as a torn tail, so an oversized
		// record, once acknowledged, would be silently truncated away (or
		// strand every record after it). Reject before any byte is written;
		// callers split pathological batches.
		return 0, fmt.Errorf("wal: batch encodes to %d bytes, exceeding the %d-byte record limit; split the batch", len(l.enc), maxRecordBytes)
	}
	var hdr [recHdrBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(l.enc)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(l.enc, crcTable))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, l.fail(err)
	}
	if _, err := l.w.Write(l.enc); err != nil {
		return 0, l.fail(err)
	}
	l.size += int64(recHdrBytes + len(l.enc))
	l.next = seq + 1
	l.dirty = true
	if m := l.met; m != nil {
		m.Appends.Inc()
		m.AppendedBytes.Add(uint64(recHdrBytes + len(l.enc)))
		m.SegmentBytes.Set(l.size)
	}
	if l.opt.SyncEveryAppend ||
		(l.opt.SyncInterval > 0 && time.Since(l.lastSync) >= l.opt.SyncInterval) {
		if err := l.Sync(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync flushes buffered records and fsyncs the active segment, making every
// appended batch durable. On a failed log it returns the failure.
func (l *Log) Sync() error {
	if l.failed != nil || l.f == nil {
		return l.failed
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	if l.dirty {
		var start time.Time
		if l.met != nil {
			start = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return l.fail(err)
		}
		if m := l.met; m != nil {
			m.Fsyncs.Inc()
			m.FsyncNs.Observe(int64(time.Since(start)))
		}
		l.dirty = false
	}
	l.lastSync = time.Now()
	return nil
}

// rotate closes the active segment (after a final sync) and starts a fresh
// one named after the next seq.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(l.next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.size = int64(len(segMagic))
	l.dirty = false
	if m := l.met; m != nil {
		m.Rotations.Inc()
		m.SegmentBytes.Set(l.size)
	}
	return nil
}

// Close syncs and closes the active segment; a failed log's segment is
// closed too, and the failure returned. The log must not be used afterwards.
func (l *Log) Close() error {
	if l.f == nil {
		return l.failed
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Replay invokes fn for every durable batch with seq > after, in order.
// It reads the segment files from disk (flushing the active writer first),
// so it observes exactly what recovery after a crash would, and checks every
// record again: damage anywhere is an error.
func (l *Log) Replay(after uint64, fn func(seq uint64, ops []topk.Op) error) error {
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			return err
		}
	}
	names, err := segments(l.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(l.dir, name))
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(data, []byte(segMagic)) {
			return fmt.Errorf("wal: segment %s: %w", name, errSegmentHeader)
		}
		for off := int64(len(segMagic)); off < int64(len(data)); {
			r, err := readRecord(data, off)
			if err != nil {
				// Open already cut the torn tail, so any damage now is real.
				return fmt.Errorf("wal: segment %s offset %d: %w", name, off, err)
			}
			if r.seq > after {
				if err := fn(r.seq, r.ops); err != nil {
					return err
				}
			}
			off = r.end
		}
	}
	return nil
}

// ReplayBatched replays every durable batch with seq > after, coalescing
// consecutive records into batches of up to maxOps operations before handing
// them to apply — recovery's fast path, since the engine's ApplyBatch is
// bit-identical across batch sizes and ingests long runs fastest. It also
// enforces seq continuity: the first replayed record must be after+1 and
// each next one consecutive, so a recovery whose base checkpoint predates
// the surviving segments (pruned or lost batches in between) fails loudly
// instead of silently skipping acknowledged updates.
func (l *Log) ReplayBatched(after uint64, maxOps int, apply func(ops []topk.Op) error) error {
	if maxOps < 1 {
		maxOps = 1
	}
	buf := make([]topk.Op, 0, maxOps)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := apply(buf)
		buf = buf[:0]
		return err
	}
	expect := after + 1
	err := l.Replay(after, func(seq uint64, ops []topk.Op) error {
		if seq != expect {
			return fmt.Errorf("wal: log gap: expected batch %d after the base at %d, found %d — batches in between were pruned or lost", expect, after, seq)
		}
		expect++
		buf = append(buf, ops...)
		if len(buf) >= maxOps {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// Prune removes segments made redundant by a checkpoint covering every batch
// with seq <= upTo: a segment can go once the NEXT segment's name is at most
// upTo+1. rotate names a segment after the next seq, which only grows, so
// every record of a segment is below its successor's name. The active
// segment is never removed, and Options.RetainSegments newest segments are
// always kept.
func (l *Log) Prune(upTo uint64) error {
	names, err := segments(l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(names) && len(names)-i > l.opt.RetainSegments; i++ {
		if next, ok := nameSeq(names[i+1], segPrefix, segSuffix); !ok || next > upTo+1 {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, names[i])); err != nil {
			return err
		}
	}
	return syncDir(l.dir)
}

// syncDir fsyncs a directory so creates, renames and removals inside it are
// durable. An error that only says the platform cannot fsync a directory is
// not reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !syncUnsupported(err) {
		return err
	}
	return nil
}

// syncUnsupported reports whether a directory fsync failed only because the
// platform or filesystem does not support it.
func syncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, errors.ErrUnsupported)
}
