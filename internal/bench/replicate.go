package bench

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fdrms/internal/core"
	"fdrms/internal/dataset"
	"fdrms/internal/geom"
	"fdrms/internal/obs"
	"fdrms/internal/replica"
	"fdrms/internal/topk"
	"fdrms/rms"
)

// Replicate measures the WAL-shipping replication path end to end: follower
// bootstrap from a checkpoint, steady-state replay lag while the primary
// ingests (p50/p99 from append to apply), read throughput served off the
// follower's lock-free generations, and recovery time for the two fault
// classes a live deployment actually meets — a torn record on the active
// segment and a stalled shipping channel. The final row is the contract the
// whole subsystem exists for: after everything, the follower's engine state
// is byte-identical to the primary's at the same seq.
func Replicate(o Options) *Table {
	o = o.withDefaults()
	initial, fresh, cfg := batchSetup(o)
	dim := o.SynthD
	const ingestBatch = 64

	pts := make([]rms.Point, len(initial))
	for i, p := range initial {
		pts[i] = rms.Point{ID: p.ID, Values: p.Coords}
	}
	stream := mixedStream(initial, fresh)
	// Three slices of the stream: steady-state replication, then one per
	// fault stage (applied while the fault is live, replayed after it heals).
	a, b := (len(stream)*6)/10, (len(stream)*8)/10
	steady, tornOps, stallOps := stream[:a], stream[a:b], stream[b:]

	dir, err := os.MkdirTemp("", "fdrms-replicate-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	t := &Table{
		Title: fmt.Sprintf("Replication: bootstrap, replay lag, follower reads, fault recovery (AntiCor, n=%d, d=%d, M=%d, r=%d)",
			len(initial), dim, o.M, cfg.R),
		Header: []string{"stage", "ops", "elapsed", "rate/s", "lag p50", "lag p99", "state==primary"},
	}

	ds, err := rms.OpenDurable(dir, dim, pts, rms.Options{
		K: cfg.K, R: cfg.R, Epsilon: cfg.Eps, MaxUtilities: cfg.M, Seed: cfg.Seed,
	}, rms.DurableOptions{
		SyncEveryBatch: true,
		SegmentBytes:   64 << 10, // force rotations so shipping crosses segment boundaries
	})
	if err != nil {
		panic(err)
	}
	defer ds.Close()
	if _, err := ds.Checkpoint(); err != nil {
		panic(err)
	}

	// appendAt records when each seq became durable on the primary; the
	// follower's ApplyHook turns that into an append-to-apply lag sample.
	var (
		mu       sync.Mutex
		appendAt = map[uint64]time.Time{}
		lag      = obs.NewHistogram()
	)
	ffs := replica.NewFaultFS(nil)

	start := time.Now()
	fol := replica.Open(dir, replica.Options{
		PollInterval: time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
		FS:           ffs,
		ApplyHook: func(seq uint64, _ int) {
			mu.Lock()
			at, ok := appendAt[seq]
			if ok {
				delete(appendAt, seq)
			}
			mu.Unlock()
			if ok {
				lag.Observe(int64(time.Since(at)))
			}
		},
	})
	defer fol.Close()
	waitSeq := func(seq uint64) {
		deadline := time.Now().Add(60 * time.Second)
		for fol.Status().AppliedSeq < seq {
			if time.Now().After(deadline) {
				st := fol.Status()
				panic(fmt.Sprintf("follower wedged at seq %d (%v, %q), primary at %d", st.AppliedSeq, st.State, st.Reason, seq))
			}
			time.Sleep(time.Millisecond)
		}
	}
	for {
		if _, _, ok := fol.EncodeState(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	waitSeq(ds.LastSeq())
	bootElapsed := time.Since(start)
	n := ds.Current().Len()
	t.AddRow("bootstrap", fmt.Sprint(n), fmtDur(bootElapsed),
		fmt.Sprintf("%.0f", float64(n)/bootElapsed.Seconds()), "-", "-", "-")

	// push applies one batch on the primary and stamps its durable time for
	// the lag probe.
	push := func(ops []rms.Update) {
		if err := ds.ApplyBatch(ops); err != nil {
			panic(err)
		}
		mu.Lock()
		appendAt[ds.LastSeq()] = time.Now()
		mu.Unlock()
	}

	// Steady-state replication: primary ingests, follower tails live.
	start = time.Now()
	for i := 0; i < len(steady); i += ingestBatch {
		j := i + ingestBatch
		if j > len(steady) {
			j = len(steady)
		}
		push(opsToUpdates(steady[i:j]))
	}
	ingestElapsed := time.Since(start)
	waitSeq(ds.LastSeq())
	t.AddRow("replicate", fmt.Sprint(len(steady)), fmtDur(ingestElapsed),
		fmt.Sprintf("%.0f", float64(len(steady))/ingestElapsed.Seconds()),
		fmtMs(lag.Quantile(0.5)), fmtMs(lag.Quantile(0.99)), "-")

	// Follower read throughput: hammer the lock-free generation for a fixed
	// window — the scale-out half of the design.
	u := make([]float64, dim)
	for i := range u {
		u[i] = 1 / math.Sqrt(float64(dim))
	}
	const readWindow = 200 * time.Millisecond
	reads := 0
	start = time.Now()
	for time.Since(start) < readWindow {
		g, _ := fol.Current()
		if _, err := g.TopK(u, 8); err != nil {
			panic(err)
		}
		reads++
	}
	readElapsed := time.Since(start)
	t.AddRow("follower reads", fmt.Sprint(reads), fmtDur(readElapsed),
		fmt.Sprintf("%.0f", float64(reads)/readElapsed.Seconds()), "-", "-", "-")

	// Fault: a torn record on the active segment. Freeze shipping at the
	// converged prefix, let the primary write on, expose all but the final
	// two bytes, and measure the follower's recovery once the fault clears.
	faultRow := func(stage string, ops []rms.Update, inject func(activeSeg string), clear func(activeSeg string)) {
		waitSeq(ds.LastSeq())
		if err := ffs.Freeze(dir); err != nil {
			panic(err)
		}
		for i := 0; i < len(ops); i += ingestBatch {
			j := i + ingestBatch
			if j > len(ops) {
				j = len(ops)
			}
			push(ops[i:j])
		}
		seg := activeSegment(dir)
		if inject != nil {
			inject(seg)
		}
		ffs.ClearStall()
		time.Sleep(20 * time.Millisecond) // let the follower meet the fault
		start := time.Now()
		if clear != nil {
			clear(seg)
		}
		waitSeq(ds.LastSeq())
		rec := time.Since(start)
		t.AddRow(stage, fmt.Sprint(len(ops)), fmtDur(rec),
			fmt.Sprintf("%.0f", float64(len(ops))/rec.Seconds()), "-", "-", "-")
	}
	faultRow("fault: torn active tail", opsToUpdates(tornOps),
		func(seg string) {
			fi, err := os.Stat(filepath.Join(dir, seg))
			if err != nil {
				panic(err)
			}
			ffs.TruncateAt(seg, fi.Size()-2)
		},
		func(seg string) { ffs.TruncateAt(seg, -1) })

	// Fault: stalled shipping (frozen visibility), recovery measured from
	// the moment the channel unblocks.
	waitSeq(ds.LastSeq())
	if err := ffs.Freeze(dir); err != nil {
		panic(err)
	}
	stall := opsToUpdates(stallOps)
	for i := 0; i < len(stall); i += ingestBatch {
		j := i + ingestBatch
		if j > len(stall) {
			j = len(stall)
		}
		push(stall[i:j])
	}
	start = time.Now()
	ffs.ClearStall()
	waitSeq(ds.LastSeq())
	rec := time.Since(start)
	t.AddRow("fault: stalled shipping", fmt.Sprint(len(stall)), fmtDur(rec),
		fmt.Sprintf("%.0f", float64(len(stall))/rec.Seconds()), "-", "-", "-")

	// The contract: byte-identical engine state at the same seq.
	followerState, atSeq, ok := fol.EncodeState()
	converged := ok && atSeq == ds.LastSeq() && bytes.Equal(followerState, ds.EncodeState())
	t.AddRow("converged", fmt.Sprint(ds.LastSeq()), "-", "-", "-", "-", fmt.Sprint(converged))

	t.Notes = append(t.Notes,
		"lag p50/p99: time from a batch durable on the primary to applied on the follower (file-level WAL shipping)",
		"follower reads: single-goroutine TopK against the follower's lock-free generation while idle",
		"fault rows: rate is catch-up replay once the fault clears; elapsed is time from fault cleared to fully converged",
		"state==primary: the follower's encoded engine state is byte-identical to the primary's at the same applied seq")
	return t
}

// batchSetup materializes the workload of the replication experiment: an
// anti-correlated initial database plus a pool of fresh points for the
// stream to insert.
func batchSetup(o Options) (initial, fresh []geom.Point, cfg core.Config) {
	n := scaled(o.SynthN, o.Scale)
	streamLen := n / 10
	if streamLen < 512 {
		streamLen = 512
	}
	ds := dataset.AntiCor(n+streamLen, o.SynthD, o.Seed)
	initial = ds.Points[:n]
	fresh = ds.Points[n:]
	cfg = core.Config{K: 1, R: capR(defaultR("AntiCor"), n), Eps: 0.01, M: o.M, Seed: o.Seed}
	return initial, fresh, cfg
}

// mixedStream interleaves one deletion of an initial tuple after every four
// insertions (20% deletes), deterministic in the stream position.
func mixedStream(initial, fresh []geom.Point) []topk.Op {
	ops := make([]topk.Op, 0, len(fresh)+len(fresh)/4)
	del := 0
	for i, p := range fresh {
		ops = append(ops, topk.InsertOp(p))
		if (i+1)%4 == 0 && del < len(initial) {
			ops = append(ops, topk.DeleteOp(initial[del].ID))
			del++
		}
	}
	return ops
}

// opsToUpdates converts a topk op stream into the rms batch form.
func opsToUpdates(ops []topk.Op) []rms.Update {
	out := make([]rms.Update, len(ops))
	for i, op := range ops {
		if op.Delete {
			out[i] = rms.Del(op.ID)
		} else {
			out[i] = rms.Ins(rms.Point{ID: op.Point.ID, Values: op.Point.Coords})
		}
	}
	return out
}

// activeSegment names the newest WAL segment in dir.
func activeSegment(dir string) string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		panic(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		panic("no WAL segments")
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// fmtMs renders a nanosecond histogram quantile in milliseconds.
func fmtMs(ns uint64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}
