// Checkpoint snapshot files.
//
// A checkpoint captures the full engine state as of a WAL seq S, so recovery
// loads the newest valid checkpoint and replays only the batches with
// seq > S. Files are self-validating and written atomically:
//
//	checkpoint-<16-hex-digit seq>.ckpt
//	  8 bytes magic "FDRMSCK1"
//	  u32  format version (1)
//	  u64  seq (the last WAL batch the snapshot includes; 0 = genesis)
//	  u64  payload length
//	  u32  CRC-32C of the payload
//	  payload (opaque to this package; see core.EncodeSnapshot)
//
// WriteCheckpoint stages the bytes in a temp file, fsyncs, then renames into
// place — a crash mid-write leaves at worst a stale temp file, never a
// half-valid checkpoint. NewestCheckpoint walks candidates newest first and
// skips any file that fails validation, so one corrupt checkpoint degrades
// recovery to the previous one (plus a longer replay) instead of failing it.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	ckptMagic   = "FDRMSCK1"
	ckptVersion = 1
	ckptPrefix  = "checkpoint-"
	ckptSuffix  = ".ckpt"
	ckptHdrLen  = len(ckptMagic) + 4 + 8 + 8 + 4
)

// ckptName returns the checkpoint file name for a seq.
func ckptName(seq uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix) }

// checkpointFiles lists checkpoint file names in dir, oldest first.
func checkpointFiles(dir string) ([]string, error) {
	return list(OSFS{}, dir, ckptPrefix, ckptSuffix)
}

// WriteCheckpoint atomically writes a checkpoint file for seq in dir.
func WriteCheckpoint(dir string, seq uint64, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, 0, ckptHdrLen+len(payload))
	buf = append(buf, ckptMagic...)
	buf = AppendU32(buf, ckptVersion)
	buf = AppendU64(buf, seq)
	buf = AppendU64(buf, uint64(len(payload)))
	buf = AppendU32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)

	tmp, err := os.CreateTemp(dir, ".tmp-"+ckptPrefix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, ckptName(seq))); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// parseCheckpoint validates the raw bytes of a checkpoint file (base names
// the file in errors) and returns its seq and payload.
func parseCheckpoint(base string, data []byte) (seq uint64, payload []byte, err error) {
	if len(data) < ckptHdrLen || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, fmt.Errorf("wal: %s: bad checkpoint magic", base)
	}
	off := len(ckptMagic)
	if v := binary.LittleEndian.Uint32(data[off:]); v != ckptVersion {
		return 0, nil, fmt.Errorf("wal: %s: unsupported checkpoint version %d", base, v)
	}
	seq = binary.LittleEndian.Uint64(data[off+4:])
	plen := binary.LittleEndian.Uint64(data[off+12:])
	crc := binary.LittleEndian.Uint32(data[off+20:])
	if plen != uint64(len(data)-ckptHdrLen) {
		return 0, nil, fmt.Errorf("wal: %s: payload length %d does not match file size", base, plen)
	}
	payload = data[ckptHdrLen:]
	if crc32.Checksum(payload, crcTable) != crc {
		return 0, nil, fmt.Errorf("wal: %s: checkpoint CRC mismatch", base)
	}
	return seq, payload, nil
}

// NewestCheckpoint returns the newest checkpoint in dir that validates,
// skipping corrupt or torn files. ok is false when none exists. A fresh
// (nonexistent) directory is not an error.
func NewestCheckpoint(dir string) (seq uint64, payload []byte, ok bool, err error) {
	return NewestCheckpointFS(OSFS{}, dir)
}

// NewestCheckpointFS is NewestCheckpoint reading through fs (nil means the
// real filesystem), so a follower's bootstrap observes the same (possibly
// fault-injected) view of the primary's directory as its tailer.
func NewestCheckpointFS(fs FS, dir string) (seq uint64, payload []byte, ok bool, err error) {
	if fs == nil {
		fs = OSFS{}
	}
	names, err := list(fs, dir, ckptPrefix, ckptSuffix)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, rerr := fs.ReadFile(filepath.Join(dir, names[i]))
		if rerr != nil {
			continue
		}
		seq, payload, perr := parseCheckpoint(names[i], data)
		if perr != nil {
			continue // fall back to the previous checkpoint
		}
		return seq, payload, true, nil
	}
	return 0, nil, false, nil
}

// OldestCheckpointSeq returns the seq of the oldest checkpoint file present
// (by file name; validation happens when one is actually read). Log segments
// must only be pruned up to THIS seq, not the newest one: recovery may fall
// back to the oldest retained checkpoint, and everything it would replay has
// to still exist.
func OldestCheckpointSeq(dir string) (uint64, bool, error) {
	names, err := checkpointFiles(dir)
	if err != nil || len(names) == 0 {
		return 0, false, err
	}
	seq, ok := nameSeq(names[0], ckptPrefix, ckptSuffix)
	if !ok {
		return 0, false, fmt.Errorf("wal: unparseable checkpoint name %q", names[0])
	}
	return seq, true, nil
}

// PruneCheckpoints removes the oldest checkpoint files so that at most keep
// remain (keep < 1 is treated as 1: the newest checkpoint is never removed).
func PruneCheckpoints(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		return err
	}
	if len(names) <= keep {
		return nil
	}
	for _, n := range names[:len(names)-keep] {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// HasState reports whether dir holds any durable state (segments or
// checkpoints) — the discriminator between a fresh store and a recovery.
func HasState(dir string) (bool, error) {
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if len(segs) > 0 {
		return true, nil
	}
	ckpts, err := checkpointFiles(dir)
	if err != nil {
		return false, err
	}
	return len(ckpts) > 0, nil
}
