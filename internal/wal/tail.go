// WAL tailing: the replica-side reader of the segment format.
//
// A Tailer consumes a log directory the way a follower process does — through
// the filesystem only, concurrently with a primary that is still appending.
// That changes what each kind of damage means compared to Open's crash
// recovery:
//
//   - A short or CRC-broken tail on the NEWEST segment is usually not a torn
//     write at all — it is the primary's buffered writer mid-flush. The tailer
//     reports it as pending (ErrKind: back off and re-poll); if the primary
//     really did crash there, Open on the primary side repairs it and the
//     next poll sees the truncated file.
//   - The same damage in a SEALED segment (any segment a newer one follows)
//     can never heal: sealed segments are closed after a clean final record.
//     That is corruption — the tailer quarantines instead of guessing.
//   - A seq discontinuity under a valid CRC is corruption wherever it occurs
//     (a torn write cannot fabricate a checksum around the wrong seq).
//   - A segment whose records the tailer still needs disappearing from the
//     directory (pruned by the primary after a checkpoint) — or a consumed
//     byte range shrinking or being rewritten — is a Gap: the follower
//     cannot continue from its position and must re-bootstrap from a newer
//     checkpoint.
//
// Records are parsed by readRecord, the same parser Open and Replay use. All
// reads go through an FS so a fault-injection layer (internal/replica) can
// truncate mid-record, delay visibility, or flip bytes deterministically.
package wal

import (
	"bytes"
	"fmt"
	"path/filepath"

	"fdrms/internal/topk"
)

// PendingError reports a condition that the primary's normal forward progress
// resolves: a torn tail on the active segment, a half-visible header, or a
// directory/file that has not appeared yet. The caller backs off and re-polls.
type PendingError struct {
	Reason string
}

func (e *PendingError) Error() string { return "wal tail pending: " + e.Reason }

// CorruptError reports structural damage that waiting cannot fix: a CRC or
// decode failure inside a sealed segment, or a sequence discontinuity under a
// valid checksum. The follower quarantines the feed and alarms.
type CorruptError struct {
	Segment string
	Offset  int64
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal tail corrupt: segment %s offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// GapError reports that the log no longer contains the tailer's position:
// the needed records were pruned, or already-consumed bytes were rewritten
// (a primary crash discarded an unsynced suffix the tailer had read). The
// follower must re-bootstrap from a checkpoint at or past Need-1.
type GapError struct {
	Need   uint64 // first seq the tailer still needs
	Reason string
}

func (e *GapError) Error() string {
	return fmt.Sprintf("wal tail gap: need seq %d: %s", e.Need, e.Reason)
}

// Tailer incrementally reads a WAL directory that another process appends to.
// Not safe for concurrent use; the follower's replay loop owns it.
type Tailer struct {
	dir string
	fs  FS

	lastSeq uint64 // last record seq consumed (records <= lastSeq are skipped)
	seg     string // segment the cursor sits in; "" = reattach by seq
	off     int64  // byte offset of the next unread record in seg

	// Fingerprint of the last consumed record: if the same bytes later hold a
	// different CRC, the primary rewrote history under us (crash recovery of
	// an unsynced suffix we had already read) — a Gap, not silent divergence.
	fpOff int64 // start offset of the last consumed record in seg; 0 = none
	fpCRC uint32
}

// NewTailer positions a tailer to deliver every record with seq > after from
// the log in dir, reading through fs (nil means the real filesystem).
func NewTailer(dir string, after uint64, fs FS) *Tailer {
	if fs == nil {
		fs = OSFS{}
	}
	return &Tailer{dir: dir, fs: fs, lastSeq: after}
}

// LastSeq returns the seq of the last record delivered by Poll (or the
// starting position when none has been yet).
func (t *Tailer) LastSeq() uint64 { return t.lastSeq }

// Poll reads forward from the cursor, appending decoded operations of each
// consecutive record to a fresh slice, until it reaches the end of the log,
// accumulates at least maxOps operations, or hits damage. It returns the
// operations in log order plus the number of records they came from.
//
// The error taxonomy is the contract (see the package comment): nil with
// records == 0 means cleanly caught up; *PendingError means back off and
// re-poll; *CorruptError means quarantine; *GapError means re-bootstrap.
// An error is only ever returned with zero records for THIS call — when
// damage follows a valid prefix, the prefix is delivered first and the next
// Poll reports the classification.
func (t *Tailer) Poll(maxOps int) (ops []topk.Op, records int, err error) {
	if maxOps < 1 {
		maxOps = 1
	}
	names, err := list(t.fs, t.dir, segPrefix, segSuffix)
	if err != nil {
		// The directory not existing (or being hidden by a fault layer) is
		// indistinguishable from a primary that has not started yet.
		return nil, 0, &PendingError{Reason: fmt.Sprintf("listing segments: %v", err)}
	}
	if len(names) == 0 {
		// Either a fresh log or everything up to a checkpoint was pruned; in
		// both cases there is nothing to read and nothing proves loss.
		return nil, 0, nil
	}
	idx := -1
	if t.seg != "" {
		for i, n := range names {
			if n == t.seg {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Our segment vanished. If it was pruned because a checkpoint
			// covers it, reattach finds the successor; otherwise it reports
			// the gap.
			t.seg, t.off, t.fpOff = "", 0, 0
		}
	}
	if idx < 0 {
		idx, err = t.attach(names)
		if err != nil {
			return nil, 0, err
		}
	}
	for {
		active := idx == len(names)-1
		name := names[idx]
		data, rerr := t.fs.ReadFile(filepath.Join(t.dir, name))
		if rerr != nil {
			// Listed a moment ago but unreadable now: pruned between the two
			// calls, or a fault layer is delaying visibility. Re-poll.
			return t.deliver(ops, records, &PendingError{Reason: fmt.Sprintf("segment %s unreadable: %v", name, rerr)})
		}
		size := int64(len(data))
		if !bytes.HasPrefix(data, []byte(segMagic)) {
			// On the active segment: the primary created the file but its
			// header write is not fully visible yet.
			return t.deliver(ops, records, t.tailDamage(active, name, 0, errSegmentHeader.Error()))
		}
		if t.off == 0 {
			t.seg, t.off = name, int64(len(segMagic))
		}
		if t.off > size {
			return t.deliver(ops, records, &GapError{Need: t.lastSeq + 1, Reason: fmt.Sprintf("segment %s shrank below the consumed offset %d", name, t.off)})
		}
		if t.fpOff > 0 {
			// The whole record is there (t.off, its end, is within size), so
			// its header CRC is set whatever damage the rest holds.
			if r, _ := readRecord(data, t.fpOff); r.crc != t.fpCRC {
				// The record we already consumed now holds different bytes:
				// the primary recovered from a crash and rewrote an unsynced
				// suffix we had read ahead of durability.
				return t.deliver(ops, records, &GapError{Need: t.lastSeq + 1, Reason: fmt.Sprintf("segment %s rewrote the record at offset %d", name, t.fpOff)})
			}
		}
		for t.off < size {
			r, err := readRecord(data, t.off)
			if err != nil {
				// The newest segment may be mid-flush; a sealed one never heals.
				return t.deliver(ops, records, t.tailDamage(active, name, t.off, err.Error()))
			}
			switch {
			case r.seq <= t.lastSeq:
				// Already applied (a reattach landed mid-segment): skip.
			case r.seq == t.lastSeq+1:
				ops = append(ops, r.ops...)
				records++
				t.lastSeq = r.seq
			default:
				return t.deliver(ops, records, &CorruptError{Segment: name, Offset: t.off, Reason: fmt.Sprintf("sequence gap: record %d follows %d", r.seq, t.lastSeq)})
			}
			t.fpOff, t.fpCRC = t.off, r.crc
			t.off = r.end
			if len(ops) >= maxOps {
				return ops, records, nil
			}
		}
		if active {
			return ops, records, nil
		}
		// Sealed segment finished cleanly: continuity to the next one is
		// checked by name (its name encodes its first seq) so a pruned-away
		// middle segment surfaces as a gap, not a silent skip.
		next := names[idx+1]
		nseq, okName := nameSeq(next, segPrefix, segSuffix)
		if !okName {
			return t.deliver(ops, records, &CorruptError{Segment: next, Offset: 0, Reason: "unparseable segment name"})
		}
		if nseq > t.lastSeq+1 {
			return t.deliver(ops, records, &GapError{Need: t.lastSeq + 1, Reason: fmt.Sprintf("next segment %s starts at %d", next, nseq)})
		}
		idx++
		t.seg, t.off, t.fpOff = next, int64(len(segMagic)), 0
	}
}

// attach finds the segment holding seq lastSeq+1 by file name. The fixed
// invariant of Prune (a segment is removed only when its successor starts at
// or before the covered seq + 1) makes "the last segment whose name is <=
// target" the unique candidate.
func (t *Tailer) attach(names []string) (int, error) {
	target := t.lastSeq + 1
	idx := -1
	for i, n := range names {
		seq, ok := nameSeq(n, segPrefix, segSuffix)
		if !ok {
			continue
		}
		if seq <= target {
			idx = i
		}
	}
	if idx < 0 {
		return 0, &GapError{Need: target, Reason: fmt.Sprintf("oldest segment %s starts past the needed record", names[0])}
	}
	t.seg, t.off, t.fpOff = names[idx], 0, 0
	return idx, nil
}

// tailDamage classifies record-level damage by where it sits: repairable/
// in-progress on the active segment, corruption in a sealed one.
func (t *Tailer) tailDamage(active bool, name string, off int64, reason string) error {
	if active {
		return &PendingError{Reason: fmt.Sprintf("segment %s incomplete at offset %d (%s)", name, off, reason)}
	}
	return &CorruptError{Segment: name, Offset: off, Reason: reason}
}

// deliver enforces the progress-first contract: a valid prefix read in this
// call is returned with a nil error (the cursor already points at the damage,
// so the NEXT poll returns the classification with zero records).
func (t *Tailer) deliver(ops []topk.Op, records int, err error) ([]topk.Op, int, error) {
	if records > 0 {
		return ops, records, nil
	}
	return nil, 0, err
}
