// Package replica turns the primary's segmented WAL into horizontal read
// scale-out: a Follower bootstraps from the newest valid checkpoint in the
// primary's WAL directory, tails the segment files as the primary appends
// (file-level shipping — the directory is the replication channel), and
// replays coalesced batches into its own MVCC store, so replicas serve the
// full lock-free read API with a per-response applied seq and staleness
// bound.
//
// The failure model is explicit, driven by the wal.Tailer's taxonomy:
//
//   - pending (torn tail on the active segment, delayed file visibility):
//     the primary is still writing — back off exponentially and re-poll.
//   - corruption (CRC/decode damage or a seq discontinuity in a sealed
//     segment): waiting cannot fix it — quarantine the feed, alarm through
//     metrics and health, keep serving the last consistent generation
//     read-only, and keep probing so a healed fault (an operator restoring
//     the segment, a fault layer clearing) resumes replication cleanly.
//   - gap (needed records pruned, or consumed bytes rewritten after a
//     primary crash discarded an unsynced suffix): the position is gone —
//     re-bootstrap from a checkpoint that covers the gap, atomically
//     swapping in the freshly restored store; until one exists the follower
//     serves its last consistent state as degraded.
//
// A follower never serves a wrong answer: only CRC-valid, seq-continuous
// records reach the store, through the same deterministic apply path as
// crash recovery, so a follower at seq S is bit-identical to the primary at
// seq S (the tests compare encoded snapshots byte for byte).
package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fdrms/internal/wal"
	"fdrms/rms"
)

// State is a follower's coarse health, derived from the replication loop.
type State int32

const (
	// StateBootstrapping: no store yet — waiting for a readable checkpoint.
	StateBootstrapping State = iota
	// StateFollowing: serving, and replication is live within the bound.
	StateFollowing
	// StateDegraded: serving the last consistent generation, but replication
	// is quarantined, gapped, or staler than the configured bound.
	StateDegraded
)

func (s State) String() string {
	switch s {
	case StateBootstrapping:
		return "bootstrapping"
	case StateFollowing:
		return "following"
	case StateDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Options configures a Follower. The zero value is serviceable for tests;
// production followers set StalenessBound to their SLO.
type Options struct {
	// Shards tunes per-host query parallelism of the restored engine
	// (zero keeps the value persisted in the checkpoint). Never affects
	// answers.
	Shards int
	// PollInterval is the idle re-poll cadence and the base of the
	// exponential backoff (default 25ms).
	PollInterval time.Duration
	// MaxBackoff caps the backoff between polls while the primary is
	// unreachable or mid-write (default 1s).
	MaxBackoff time.Duration
	// StalenessBound is how long the follower may go without proving itself
	// caught up or advancing before Status reports it degraded (default 5s).
	StalenessBound time.Duration
	// MaxBatchOps bounds how many operations one poll coalesces into a
	// single engine batch (default 4096, recovery's replay window).
	MaxBatchOps int
	// FS is the filesystem the follower reads the primary's directory
	// through; nil means the real one. Tests inject a *FaultFS.
	FS wal.FS
	// Now is the clock for staleness bookkeeping (nil means time.Now).
	Now func() time.Time
	// Metrics, when set, mirrors replication traffic into obs handles.
	Metrics *Metrics
	// Telemetry, when set, instruments each restored store (engine phase
	// mirrors, read latency, generation gauges) like a primary's.
	Telemetry *rms.Telemetry
	// ApplyHook, when set, runs after each applied batch with the new
	// applied seq and the batch's op count — the bench's lag probe. Called
	// from the replay loop; keep it cheap.
	ApplyHook func(seq uint64, ops int)
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.StalenessBound <= 0 {
		o.StalenessBound = 5 * time.Second
	}
	if o.MaxBatchOps <= 0 {
		o.MaxBatchOps = 4096
	}
	if o.FS == nil {
		o.FS = wal.OSFS{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Status is a point-in-time view of a follower's replication health.
type Status struct {
	State      State
	AppliedSeq uint64        // last WAL seq applied
	Generation uint64        // id of the serving generation (0 while bootstrapping)
	Staleness  time.Duration // time since the follower last advanced or proved itself caught up
	Reason     string        // why degraded (quarantine, gap, staleness); "" when healthy
	Resyncs    uint64        // checkpoint re-bootstraps taken after gaps
	Retries    uint64        // pending polls that scheduled a backoff
}

// view is the immutable bundle the replay loop publishes for readers: the
// serving store plus the replication position it corresponds to.
type view struct {
	store      *rms.Store // nil until the first bootstrap succeeds
	appliedSeq uint64
	progress   time.Time // when the follower last advanced or saw a clean, caught-up poll
	reason     string    // quarantine or gap annotation; "" when the feed is healthy
	resyncs    uint64
	retries    uint64
}

// Follower replicates a primary's WAL directory into a local MVCC store and
// serves lock-free reads from it. Create with Open, stop with Close. All
// read methods are safe for concurrent use; the replay loop is internal.
type Follower struct {
	dir string
	opt Options

	cur  atomic.Pointer[view] // published only by publish
	stop chan struct{}
	done chan struct{}

	closeOnce sync.Once

	// Replay-loop-private state (single goroutine, never read elsewhere).
	store   *rms.Store
	tailer  *wal.Tailer
	backoff time.Duration
	loopV   view // staged copy of the published view
}

// Open starts a follower over the primary's WAL directory and returns
// immediately; bootstrap (finding and restoring a checkpoint) proceeds
// asynchronously so a follower can be pointed at a primary that does not
// exist yet. Status reports StateBootstrapping until the first checkpoint
// loads; readiness gates (rmsserve /readyz) key off that.
func Open(dir string, opt Options) *Follower {
	f := &Follower{
		dir:  dir,
		opt:  opt.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.backoff = f.opt.PollInterval
	f.loopV = view{progress: f.opt.Now()}
	f.publish()
	go f.run()
	return f
}

// Dir returns the replicated WAL directory.
func (f *Follower) Dir() string { return f.dir }

// publish snapshots the loop's staged view for readers.
func (f *Follower) publish() {
	v := f.loopV
	f.cur.Store(&v)
	if m := f.opt.Metrics; m != nil {
		m.AppliedSeq.Set(int64(v.appliedSeq))
		m.StalenessNs.Set(int64(f.opt.Now().Sub(v.progress)))
	}
}

// Current returns the newest committed generation of the replica store, or
// nil while bootstrapping. The handle is immutable and lock-free, exactly
// like Store.Current on the primary.
func (f *Follower) Current() (*rms.Generation, Status) {
	v := f.cur.Load()
	var g *rms.Generation
	if v.store != nil {
		g = v.store.Current()
	}
	return g, f.statusOf(v, g)
}

// Status reports the follower's replication health.
func (f *Follower) Status() Status {
	v := f.cur.Load()
	var g *rms.Generation
	if v.store != nil {
		g = v.store.Current()
	}
	return f.statusOf(v, g)
}

func (f *Follower) statusOf(v *view, g *rms.Generation) Status {
	st := Status{
		AppliedSeq: v.appliedSeq,
		Staleness:  f.opt.Now().Sub(v.progress),
		Reason:     v.reason,
		Resyncs:    v.resyncs,
		Retries:    v.retries,
	}
	if g != nil {
		st.Generation = g.ID()
	}
	switch {
	case v.store == nil:
		st.State = StateBootstrapping
	case v.reason != "":
		st.State = StateDegraded
	case st.Staleness > f.opt.StalenessBound:
		st.State = StateDegraded
		st.Reason = fmt.Sprintf("staleness %v exceeds bound %v", st.Staleness.Round(time.Millisecond), f.opt.StalenessBound)
	default:
		st.State = StateFollowing
	}
	return st
}

// EncodeState captures the replica store's full engine state as the
// canonical snapshot encoding — byte-comparable with the primary's at the
// same applied seq. ok is false while bootstrapping. The capture blocks the
// replay loop for its duration (tests and diagnostics only).
func (f *Follower) EncodeState() (state []byte, appliedSeq uint64, ok bool) {
	v := f.cur.Load()
	if v.store == nil {
		return nil, 0, false
	}
	return v.store.EncodeState(), v.appliedSeq, true
}

// Close stops the replay loop and releases the replica store's worker pool.
// Reads against already-obtained generations keep working.
func (f *Follower) Close() {
	f.closeOnce.Do(func() {
		close(f.stop)
		<-f.done
		if f.store != nil {
			f.store.Close()
		}
	})
}

// run is the replay loop: one goroutine owns the tailer, the store swaps,
// and the published view.
func (f *Follower) run() {
	defer close(f.done)
	timer := time.NewTimer(0)
	<-timer.C // a zero timer always fires; drain so Reset starts clean
	for {
		delay := f.step()
		if delay <= 0 {
			// More work is immediately available (a full batch was cut or a
			// resync landed); yield only to the stop signal.
			select {
			case <-f.stop:
				return
			default:
				continue
			}
		}
		timer.Reset(delay)
		select {
		case <-f.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// step advances the follower one action — bootstrap attempt or tail poll —
// and returns how long to sleep before the next one (<= 0: go again now).
func (f *Follower) step() time.Duration {
	if f.store == nil {
		return f.bootstrap()
	}
	m := f.opt.Metrics
	if m != nil {
		m.TailPolls.Inc()
	}
	ops, records, err := f.tailer.Poll(f.opt.MaxBatchOps)
	now := f.opt.Now()
	if err == nil {
		if records > 0 {
			start := now
			f.store.ApplyReplicated(ops)
			seq := f.tailer.LastSeq()
			if m != nil {
				m.ReplayedBatches.Add(uint64(records))
				m.ReplayedOps.Add(uint64(len(ops)))
				m.ApplyNs.Observe(int64(f.opt.Now().Sub(start)))
			}
			f.loopV.appliedSeq = seq
			f.loopV.progress = now
			f.loopV.reason = ""
			f.publish()
			if f.opt.ApplyHook != nil {
				f.opt.ApplyHook(seq, len(ops))
			}
			f.backoff = f.opt.PollInterval
			if len(ops) >= f.opt.MaxBatchOps {
				return 0 // a full window: drain the backlog at full speed
			}
			return f.opt.PollInterval
		}
		// Cleanly caught up: this is proof of freshness (and that any prior
		// quarantine healed), even though nothing advanced.
		f.loopV.progress = now
		f.loopV.reason = ""
		f.publish()
		f.backoff = f.opt.PollInterval
		return f.opt.PollInterval
	}
	switch e := err.(type) {
	case *wal.CorruptError:
		// Structural damage in a sealed segment: quarantine and alarm, keep
		// serving the last consistent generation, keep probing — if the
		// fault clears (segment restored), the next poll succeeds and the
		// reason resets.
		if f.loopV.reason == "" && m != nil {
			m.Quarantines.Inc()
		}
		f.loopV.reason = e.Error()
		f.publish()
		return f.opt.MaxBackoff
	case *wal.GapError:
		return f.resync(e)
	default:
		// *wal.PendingError: the primary is mid-write, slow, or not visible —
		// normal life. An error outside the taxonomy (an unexpected FS
		// failure) is treated the same. Staleness keeps growing (progress is
		// NOT touched), so a primary stalled past the bound degrades the
		// follower without any special case.
		f.loopV.retries++
		f.publish()
		if m != nil {
			m.TailRetries.Inc()
		}
		return f.backoffStep()
	}
}

// backoffStep doubles the poll backoff, up to MaxBackoff, and returns it.
func (f *Follower) backoffStep() time.Duration {
	f.backoff = min(2*f.backoff, f.opt.MaxBackoff)
	return f.backoff
}

// bootstrap tries to load the newest checkpoint and start tailing after it.
func (f *Follower) bootstrap() time.Duration {
	seq, payload, ok, err := wal.NewestCheckpointFS(f.opt.FS, f.dir)
	if err != nil || !ok {
		// No directory, no checkpoint, or none readable yet: the primary may
		// simply not have started. Stay in bootstrap with backoff.
		return f.backoffStep()
	}
	return f.restore(seq, payload)
}

// resync reacts to a gap: if a checkpoint at or past the gap exists, rebuild
// the store from it; otherwise stay degraded on the last consistent state
// until the primary checkpoints again.
func (f *Follower) resync(gap *wal.GapError) time.Duration {
	seq, payload, ok, err := wal.NewestCheckpointFS(f.opt.FS, f.dir)
	if err != nil || !ok || seq+1 < gap.Need {
		// No checkpoint covers the gap yet (retention raced us): serve the
		// last consistent state, report why, and wait for the primary's next
		// checkpoint to leapfrog.
		f.loopV.reason = fmt.Sprintf("retention gap: %v", gap)
		f.publish()
		return f.opt.MaxBackoff
	}
	return f.restore(seq, payload)
}

// restore builds a replica store from the checkpoint at seq, swaps it in
// atomically (readers migrate on their next Current call; generations they
// already hold stay valid), and starts tailing after seq. Replacing a
// serving store counts as a resync.
func (f *Follower) restore(seq uint64, payload []byte) time.Duration {
	store, _, err := rms.NewReplicaStore(payload, f.opt.Shards)
	if err != nil {
		// The payload validated its CRC but does not decode — version skew
		// or deep corruption. Alarm and retry; an operator (or a newer
		// checkpoint) resolves it.
		f.loopV.reason = fmt.Sprintf("checkpoint %d unusable: %v", seq, err)
		f.publish()
		return f.opt.MaxBackoff
	}
	if f.opt.Telemetry != nil {
		store.SetTelemetry(f.opt.Telemetry)
	}
	old := f.store
	f.store = store
	f.tailer = wal.NewTailer(f.dir, seq, f.opt.FS)
	f.loopV = view{
		store:      store,
		appliedSeq: seq,
		progress:   f.opt.Now(),
		resyncs:    f.loopV.resyncs,
		retries:    f.loopV.retries,
	}
	if old != nil {
		f.loopV.resyncs++
	}
	f.publish()
	if m := f.opt.Metrics; m != nil {
		m.Bootstraps.Inc()
		if old != nil {
			m.Resyncs.Inc()
		}
	}
	if old != nil {
		old.Close()
	}
	f.backoff = f.opt.PollInterval
	return 0
}
