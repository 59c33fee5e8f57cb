package rms

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fdrms/internal/core"
	"fdrms/internal/topk"
	"fdrms/internal/wal"
)

// DurableOptions configures the durability subsystem of a DurableStore.
type DurableOptions struct {
	// SyncEveryBatch fsyncs the log after every write, so an acknowledged
	// update is never lost. Off, the durable prefix trails by up to
	// SyncInterval (plus the OS flush), which multiplies ingest throughput —
	// the classic WAL trade-off.
	SyncEveryBatch bool
	// SyncInterval bounds the staleness of the durable prefix when
	// SyncEveryBatch is off; zero syncs only on rotation, Checkpoint, Sync,
	// and Close.
	SyncInterval time.Duration
	// SegmentBytes is the log segment rotation threshold
	// (default wal.DefaultSegmentBytes).
	SegmentBytes int64
	// KeepCheckpoints is how many checkpoint files survive pruning after a
	// new one is written (default 2: the newest plus one fallback should the
	// newest turn out corrupt on recovery).
	KeepCheckpoints int

	// CheckpointEveryOps runs an automatic Checkpoint once at least this
	// many operations have been applied since the last checkpoint (manual
	// or automatic). Zero disables the op-count trigger. The checkpoint runs
	// synchronously in the goroutine of the write that crossed the
	// threshold, after that write's batch is applied and outside the writer
	// lock — concurrent writers keep flowing, and a checkpoint failure is
	// returned by the triggering write wrapped in ErrAutoCheckpoint (the
	// write itself is already durable and applied; do not retry it).
	CheckpointEveryOps int

	// RetainSegments keeps at least this many of the newest log segments
	// through checkpoint-driven pruning — a static cushion for WAL-shipping
	// followers tailing the directory, useful when no feedback channel exists
	// to drive SetRetainFloor. Zero retains only what recovery requires.
	RetainSegments int
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.KeepCheckpoints == 0 {
		o.KeepCheckpoints = 2
	}
	return o
}

// DurableStore is a Store whose updates survive a crash: every batch is
// appended to a write-ahead log BEFORE it is applied (log-before-apply), and
// Checkpoint persists a full snapshot so recovery replays only the log tail.
//
// Durability is exact, not approximate: recovery rebuilds the engine state
// bit for bit — the same result set, the same covers, the same maintenance
// counters as the uninterrupted run — because the checkpoint captures the
// path-dependent state (Φ sets, runner-up buffers, cover assignment)
// verbatim and WAL replay is the same deterministic ApplyBatch path that
// produced the state in the first place.
//
// Reads go through Current, served by the embedded Store, and never touch
// the log. Writers serialize on the store's write lock plus the log; a
// Checkpoint STREAMS its capture — it pins the state under the
// writer lock (an O(arena) generation pin, not an O(state) copy), then
// captures bounded chunks between writer batches and encodes and writes
// off the lock entirely — so ingestion keeps flowing for the whole
// checkpoint, pausing only for the pin plus one chunk at a time, and
// readers not at all.
type DurableStore struct {
	store *Store
	dir   string
	opt   DurableOptions

	// wmu serializes writers across the log append and the in-memory apply,
	// keeping the log order identical to the apply order. It nests OUTSIDE
	// store.mu.
	wmu    sync.Mutex
	log    *wal.Log // opened at construction, then guarded by wmu
	closed bool     // guarded by wmu

	ops []topk.Op // reusable batch-conversion scratch; guarded by wmu

	// ckptMu serializes whole checkpoints (manual calls racing each other or
	// the auto trigger): the engine supports one armed streaming capture at
	// a time. It nests OUTSIDE wmu and is held across the entire capture,
	// including the off-lock chunk windows writers slip through.
	ckptMu sync.Mutex

	// ckptStepHook, when set (tests only, before any concurrency starts),
	// runs between chunk windows of a streaming checkpoint — the instants
	// where writers are free to cut in.
	ckptStepHook func()

	// Auto-checkpoint state (see DurableOptions.CheckpointEveryOps).
	// ckptBusy keeps concurrent triggering writers from stacking redundant
	// checkpoints (the loser simply skips — the winner's checkpoint covers
	// its batch too, since Checkpoint captures after syncing the log).
	opsSinceCkpt int // guarded by wmu
	ckptBusy     atomic.Bool

	// appliedSeq mirrors log.LastSeq after every committed write so serving
	// paths can report the durable position without touching wmu (LastSeq
	// takes the writer lock; /healthz and per-read annotations must not).
	appliedSeq atomic.Uint64

	// tel, when set, mirrors checkpoint traffic into obs handles (the store
	// and WAL wire their own shares; see DurableStore.SetTelemetry). Atomic
	// so a checkpoint never races the attach.
	tel atomic.Pointer[Telemetry]
}

// OpenDurable opens (or creates) a durable store rooted at dir.
//
// A fresh directory initializes the structure from initial (exactly like
// NewStore) and writes a genesis checkpoint before accepting writes, so the
// initial database is always recoverable. A directory holding state ignores
// dim, initial, and every opts field except Shards — the configuration that
// built the store is part of its durable state, while the shard count is a
// per-host parallelism knob (opts.Shards > 0 overrides the persisted value;
// it never affects any answer) — and recovers: the newest valid checkpoint is
// loaded (falling back to an older one if the newest is damaged) and every
// logged batch after it is replayed. A torn record at the log tail — the
// write a crash interrupted — is truncated away; recovery lands on exactly
// the durable prefix.
func OpenDurable(dir string, dim int, initial []Point, opts Options, dopts DurableOptions) (*DurableStore, error) {
	dopts = dopts.withDefaults()
	hasState, err := wal.HasState(dir)
	if err != nil {
		return nil, err
	}
	ds := &DurableStore{dir: dir, opt: dopts}
	logOpts := wal.Options{
		SegmentBytes:    dopts.SegmentBytes,
		SyncEveryAppend: dopts.SyncEveryBatch,
		SyncInterval:    dopts.SyncInterval,
		RetainSegments:  dopts.RetainSegments,
	}

	if !hasState {
		d, err := NewDynamic(dim, initial, opts)
		if err != nil {
			return nil, err
		}
		// Genesis checkpoint first, then the log: a crash between the two
		// leaves a checkpoint with no log, which recovers to the initial
		// state — correct, since nothing was acknowledged yet.
		if err := wal.WriteCheckpoint(dir, 0, core.EncodeSnapshot(nil, d.f.Snapshot())); err != nil {
			return nil, err
		}
		ds.log, err = wal.Open(dir, logOpts)
		if err != nil {
			return nil, err
		}
		ds.store = NewStoreFrom(d)
		return ds, nil
	}

	seq, payload, ok, err := wal.NewestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("rms: %s holds log segments but no readable checkpoint; cannot recover a base state", dir)
	}
	snap, err := core.DecodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("rms: decoding checkpoint %d: %w", seq, err)
	}
	f, err := core.Restore(snap, opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("rms: restoring checkpoint %d: %w", seq, err)
	}
	ds.log, err = wal.Open(dir, logOpts)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Coalesced replay with the built-in continuity guard: batching is
	// answer-neutral (the engine's batch≡sequential contract, which the
	// crash-recovery tests re-verify end to end), and a gap between the
	// checkpoint and the surviving segments — possible when recovery falls
	// back past a damaged newer checkpoint after manual file surgery, since
	// Checkpoint itself prunes only up to the OLDEST retained checkpoint —
	// must fail loudly rather than silently skip acknowledged updates.
	replayed := 0
	replayErr := ds.log.ReplayBatched(seq, replayBatchOps, func(ops []topk.Op) error {
		f.ApplyBatch(ops)
		replayed += len(ops)
		return nil
	})
	if replayErr != nil {
		// Replay may already have started the engine's shard worker pool;
		// release it so a caller retrying OpenDurable does not accumulate
		// parked goroutines pinning the discarded structure.
		f.Close()
		ds.log.Close()
		return nil, fmt.Errorf("rms: replaying log after checkpoint %d: %w", seq, replayErr)
	}
	// All segments before the checkpoint may have been pruned; keep the seq
	// numbering monotonic regardless.
	ds.log.EnsureNextSeq(seq + 1)
	ds.appliedSeq.Store(ds.log.LastSeq())
	// The replayed tail counts toward CheckpointEveryOps: those operations
	// are applied but not yet covered by any checkpoint, so a store that
	// keeps crashing short of the threshold still checkpoints on the first
	// write after recovery instead of growing its replay window per run.
	ds.opsSinceCkpt = replayed
	ds.store = NewStoreFrom(&Dynamic{f: f, dim: snap.Dim})
	return ds, nil
}

// replayBatchOps is the coalescing threshold of WAL replay: decoded records
// accumulate until this many operations are pending, then apply as one
// engine batch. The answer does not depend on it.
const replayBatchOps = 4096

// HasDurableState reports whether dir already holds a recoverable store
// (checkpoints or log segments). A missing directory is simply false.
// Callers use it to decide between initializing and recovering before
// calling OpenDurable.
func HasDurableState(dir string) (bool, error) { return wal.HasState(dir) }

// errClosed is returned by writes against a closed store.
var errClosed = fmt.Errorf("rms: durable store is closed")

// ErrAutoCheckpoint wraps a checkpoint failure surfaced by the write that
// triggered it. The write ITSELF succeeded — it is logged, synced per the
// configured policy, and applied — so callers must NOT retry the batch on
// this error (FD-RMS state is path-dependent; a double-applied batch
// changes the answer). Detect it with errors.Is(err, rms.ErrAutoCheckpoint)
// and handle the checkpoint failure out of band (retry Checkpoint, free
// disk space, alert).
var ErrAutoCheckpoint = errors.New("rms: auto-checkpoint failed (the triggering write was applied)")

// Insert durably adds a tuple (replacing any live tuple with the same ID):
// the update is logged, synced per the configured policy, and then applied.
func (ds *DurableStore) Insert(p Point) error {
	return ds.ApplyBatch([]Update{Ins(p)})
}

// Delete durably removes the tuple with the given ID. Deleting an unknown ID
// is a no-op and is not logged.
func (ds *DurableStore) Delete(id int) error {
	return ds.durableWrite(func() (bool, error) {
		if !ds.store.Current().Contains(id) {
			return false, nil
		}
		return true, ds.applyLocked([]Update{Del(id)})
	})
}

// ApplyBatch durably applies the updates in order: the whole batch becomes
// one log record (and one fsync under the per-batch policy) and is then
// applied through the store's batched path. The batch is validated before
// anything is logged, so a rejected batch leaves no trace.
func (ds *DurableStore) ApplyBatch(batch []Update) error {
	return ds.durableWrite(func() (bool, error) {
		if len(batch) == 0 {
			return false, nil
		}
		return true, ds.applyLocked(batch)
	})
}

// durableWrite runs one write under wmu (with a deferred unlock, so a panic
// in the apply path cannot wedge the store for a caller that recovers) and
// then the auto-checkpoint protocol. locked screens its input and reports
// whether anything was applied; screens that report false never trigger a
// checkpoint.
func (ds *DurableStore) durableWrite(locked func() (bool, error)) error {
	err, trigger := func() (error, bool) {
		ds.wmu.Lock()
		defer ds.wmu.Unlock()
		if ds.closed {
			return errClosed, false
		}
		applied, err := locked()
		return err, err == nil && applied && ds.autoCheckpointDueLocked()
	}()
	if !trigger {
		return err
	}
	return ds.runAutoCheckpoint()
}

// autoCheckpointDueLocked reports whether the configured auto-checkpoint
// trigger has fired; wmu must be held.
func (ds *DurableStore) autoCheckpointDueLocked() bool {
	return ds.opt.CheckpointEveryOps > 0 && ds.opsSinceCkpt >= ds.opt.CheckpointEveryOps
}

// runAutoCheckpoint runs the triggered checkpoint synchronously in the
// crossing writer's goroutine, outside wmu — concurrent writers keep
// flowing, and at most one auto-checkpoint runs at a time (a losing racer
// simply skips: the winner's checkpoint covers its batch too, since
// Checkpoint syncs the log before capturing). The write itself is already
// applied and durable per the sync policy; a checkpoint error is surfaced
// to the triggering caller.
func (ds *DurableStore) runAutoCheckpoint() error {
	if !ds.ckptBusy.CompareAndSwap(false, true) {
		return nil
	}
	defer ds.ckptBusy.Store(false)
	for pass := 0; ; pass++ {
		_, err := ds.Checkpoint()
		if err == errClosed {
			// A concurrent Close won the race; the write itself is applied
			// and logged, so it still reports success.
			return nil
		}
		if err != nil {
			// Wrapped so callers can tell "write applied, checkpoint
			// failed" from a failed write — retrying the batch would apply
			// it twice.
			return fmt.Errorf("%w: %w", ErrAutoCheckpoint, err)
		}
		// Writers that crossed the threshold while this checkpoint was on
		// disk lost the ckptBusy race and skipped; their operations re-armed
		// the trigger, so run ONE catch-up pass — otherwise a store that
		// quiesces right after a concurrent burst would sit past its
		// configured bound until the next write. The catch-up is bounded
		// (and requires uncovered ops): under sustained concurrent load the
		// trigger re-arms continuously, and an unbounded loop would pin the
		// triggering writer in back-to-back checkpoints forever — later
		// writes take over instead.
		if pass >= 1 {
			return nil
		}
		ds.wmu.Lock()
		due := ds.opsSinceCkpt > 0 && ds.autoCheckpointDueLocked()
		ds.wmu.Unlock()
		if !due {
			return nil
		}
	}
}

// applyLocked logs then applies one batch; wmu must be held. The batch is
// validated and converted exactly once, and the very ops that were logged
// are the ops applied — the log-before-apply hinge cannot drift between two
// validation copies.
func (ds *DurableStore) applyLocked(batch []Update) error {
	ops, err := toOps(ds.ops[:0], batch, ds.store.d.dim)
	ds.ops = ops
	if err != nil {
		return err
	}
	if _, err := ds.log.Append(ops); err != nil {
		return err
	}
	ds.store.ApplyReplicated(ops)
	ds.opsSinceCkpt += len(ds.ops)
	ds.appliedSeq.Store(ds.log.LastSeq())
	return nil
}

// checkpointChunk bounds how many utilities one streaming-capture window
// copies while holding the writer lock — the unit of writer pause a running
// checkpoint can impose after its initial pin. A variable only so the
// concurrency tests can shrink it to force many windows on small universes.
var checkpointChunk = 1024

// Checkpoint persists a full snapshot of the current state and prunes the
// log segments and older checkpoint files it makes redundant. The capture
// STREAMS: under the write lock the state is only pinned (the log seq, the
// cover assignment, an epoch-pinned view of the tuple index — nothing
// proportional to Σ|Φ|), then utility states are copied in
// checkpointChunk-bounded windows with the lock RELEASED between windows,
// so concurrent writer batches interleave with the capture and land in the
// log after seq, exactly where replay expects them. Copy-on-first-write
// overlays (package topk) keep every captured value at its pin-point
// version, so the resulting snapshot — assembled, encoded, and written
// entirely off the lock — is bit-identical to a stop-the-world capture at
// seq; the concurrency suite enforces this byte for byte. Readers are
// never blocked. Returns the WAL seq the checkpoint covers.
func (ds *DurableStore) Checkpoint() (uint64, error) {
	// One streaming capture at a time: the engine has a single overlay
	// session. Held across the whole capture; writers do NOT take ckptMu,
	// so they keep flowing through the chunk windows.
	ds.ckptMu.Lock()
	defer ds.ckptMu.Unlock()
	tel := ds.tel.Load()
	var ckptStart int64
	if tel != nil {
		ckptStart = monotonicNanos()
	}
	var (
		seq     uint64
		sess    *core.SnapshotSession
		prevOps int
	)
	// The locked pin runs under a deferred unlock so a panic anywhere in it
	// cannot wedge the store for a caller that recovers.
	if err := func() error {
		ds.wmu.Lock()
		defer ds.wmu.Unlock()
		if ds.closed {
			return errClosed
		}
		// The log is synced BEFORE the capture: the checkpoint claims to
		// cover seq, so every batch up to seq must be at least as durable as
		// the checkpoint that supersedes it.
		if err := ds.log.Sync(); err != nil {
			return err
		}
		// Reset the auto-checkpoint trigger at capture time — operations
		// applied while the snapshot is being written to disk are NOT
		// covered by it and must count toward the next one. The pre-reset
		// count is remembered so a failed write restores it: a checkpoint
		// that never hit disk must not silence the trigger for a whole
		// further cycle.
		prevOps = ds.opsSinceCkpt
		ds.opsSinceCkpt = 0
		seq = ds.log.LastSeq()
		// Arm the capture under the store's writer mutex: holding wmu at the
		// same time makes "state at seq" exact — no batch can slip between
		// the LastSeq read and the pin. Readers (which only load generation
		// handles) still flow.
		ds.store.withWriteLock(func() {
			sess = ds.store.d.f.StartSnapshot()
		})
		return nil
	}(); err != nil {
		return 0, err
	}

	// Stream the utility states out in bounded windows. Each window takes
	// only the store's writer mutex — NOT wmu — so writer batches (which
	// hold wmu across log append + apply) interleave between windows; their
	// mutations hit the copy-on-first-write overlay and cannot perturb the
	// pinned capture.
	for {
		var done bool
		var w0 int64
		if tel != nil {
			w0 = monotonicNanos()
		}
		ds.store.withWriteLock(func() {
			done = sess.Step(checkpointChunk)
		})
		if tel != nil {
			tel.ckptChunks.Inc()
			tel.ckptStallNs.Observe(monotonicNanos() - w0)
		}
		if done {
			break
		}
		if ds.ckptStepHook != nil {
			ds.ckptStepHook()
		}
	}
	// Assembly, encoding, and the file write all run off every lock.
	snap := sess.Finish()

	// A fresh buffer per call: Checkpoints are serialized by ckptMu, but a
	// shared encode buffer would outlive the call via wal internals for no
	// gain.
	if err := wal.WriteCheckpoint(ds.dir, seq, core.EncodeSnapshot(nil, snap)); err != nil {
		ds.wmu.Lock()
		// The ops this capture covered reached no durable checkpoint, so
		// they must count toward the op trigger again — unconditionally:
		// captures partition the op stream, so concurrent failing
		// Checkpoints each re-add their own share. If a concurrent
		// SUCCESSFUL checkpoint superseded this capture, its snapshot does
		// cover these ops and this overcounts — costing at most one
		// redundant checkpoint on the next write, the safe direction (an
		// undercount would silently extend the replay window past the
		// configured bound).
		ds.opsSinceCkpt += prevOps
		ds.wmu.Unlock()
		return 0, err
	}
	if tel != nil {
		tel.checkpoints.Inc()
		tel.ckptNs.Observe(monotonicNanos() - ckptStart)
	}
	if err := wal.PruneCheckpoints(ds.dir, ds.opt.KeepCheckpoints); err != nil {
		return 0, err
	}
	// The log is pruned only up to the OLDEST checkpoint that survived
	// pruning: recovery may fall back to it if the newest turns out corrupt,
	// and must then find every subsequent batch still on disk.
	pruneTo, ok, err := wal.OldestCheckpointSeq(ds.dir)
	if err != nil || !ok {
		return seq, err
	}
	// Pruning the log needs the writer's segment bookkeeping stable.
	ds.wmu.Lock()
	defer ds.wmu.Unlock()
	if ds.closed {
		return seq, nil
	}
	return seq, ds.log.Prune(pruneTo)
}

// Sync flushes and fsyncs the log, making every applied batch durable
// regardless of the sync policy.
func (ds *DurableStore) Sync() error {
	ds.wmu.Lock()
	defer ds.wmu.Unlock()
	if ds.closed {
		return errClosed
	}
	return ds.log.Sync()
}

// Close syncs and closes the log and releases the engine's persistent shard
// worker pool. Further writes fail; reads keep working against the
// in-memory state.
func (ds *DurableStore) Close() error {
	ds.wmu.Lock()
	defer ds.wmu.Unlock()
	if ds.closed {
		return nil
	}
	ds.closed = true
	ds.store.Close()
	return ds.log.Close()
}

// LastSeq returns the seq of the last logged batch (0 before the first).
func (ds *DurableStore) LastSeq() uint64 {
	ds.wmu.Lock()
	defer ds.wmu.Unlock()
	return ds.log.LastSeq()
}

// AppliedSeq is LastSeq without the writer lock: a lock-free mirror updated
// as each write commits, for serving paths (health endpoints, per-response
// annotations) that must never wait on ingestion. It may trail LastSeq by
// the in-flight write that is between its log append and its commit.
func (ds *DurableStore) AppliedSeq() uint64 { return ds.appliedSeq.Load() }

// SetRetainFloor pins WAL pruning so every batch with seq >= seq stays
// replayable — the feedback channel for replication: point it at the oldest
// seq any live follower still needs and checkpoint-driven pruning can never
// race a slow follower out of its position (see wal.Log.SetRetainFloor).
// Zero clears the floor.
func (ds *DurableStore) SetRetainFloor(seq uint64) {
	ds.wmu.Lock()
	defer ds.wmu.Unlock()
	if ds.closed {
		return
	}
	ds.log.SetRetainFloor(seq)
}

// Dir returns the durability directory.
func (ds *DurableStore) Dir() string { return ds.dir }

// Current returns the newest committed generation (see Store.Current):
// lock-free repeatable reads pinned to one durable commit point.
func (ds *DurableStore) Current() *Generation { return ds.store.Current() }
