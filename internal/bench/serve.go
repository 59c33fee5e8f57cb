package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fdrms/internal/dataset"
	"fdrms/rms"
)

// serveBatch is the writer's batch size in the serving benchmark: large
// enough to engage the shard-parallel batch path, small enough to publish
// generations at a realistic ingestion cadence.
const serveBatch = 64

// serveSampleCap bounds the latency samples kept per reader and read kind;
// reads beyond the cap still count toward throughput. Point reads run in
// tens of nanoseconds, so an uncapped 2-second run would retain tens of
// millions of samples for no extra percentile fidelity.
const serveSampleCap = 1 << 17

// serveReader accumulates one goroutine's measurements, all thread-local
// until the writer finishes and the goroutine exits.
type serveReader struct {
	reads   [3]int
	samples [3][]time.Duration
	ok      bool
}

var serveKinds = [3]string{"result", "topk", "regret"}

// Serve measures the MVCC serving layer under concurrent load: one writer
// streams sliding-window batches through rms.Store.ApplyBatch while N
// reader goroutines hammer the lock-free read entry points — Result
// (answer snapshot), TopK (tuple query against the pinned index view), and
// RegretRatioFor (answer evaluation) — each read pinned to whatever
// generation is current when it starts. Reads never take a lock (the read
// path is one atomic pointer load), so the table's tail-to-median ratio
// p99/p50 is the whole story of reader/writer interference: with reads
// blocking on a writer lock it would track the multi-millisecond batch
// latency; lock-free it stays within a small constant.
func Serve(o Options) *Table {
	o = o.withDefaults()
	n := scaled(o.SynthN, o.Scale)
	nBatches := n / serveBatch
	if nBatches < 20 {
		nBatches = 20
	}
	streamLen := nBatches * serveBatch
	ds := dataset.AntiCor(n+streamLen, o.SynthD, o.Seed)
	r := capR(defaultR("AntiCor"), n)
	opts := rms.Options{K: 1, R: r, Epsilon: 0.01, MaxUtilities: o.M, Seed: o.Seed}

	probes := serveUtilities(o.SynthD, 32, o.Seed)
	t := &Table{
		Title: fmt.Sprintf("MVCC serving under concurrent writes (AntiCor, n=%d, d=%d, M=%d, r=%d, batch=%d)",
			n, o.SynthD, o.M, r, serveBatch),
		Header: []string{"readers", "kind", "reads", "reads/s", "p50(µs)", "p99(µs)", "max(µs)",
			"p99/p50", "write ops/s", "gens/s", "reads/gen", "consistent"},
	}
	for _, nReaders := range []int{1, 4} {
		initial := make([]rms.Point, n)
		for i, p := range ds.Points[:n] {
			initial[i] = rms.Point{ID: p.ID, Values: p.Coords}
		}
		store, err := rms.NewStore(o.SynthD, initial, opts)
		if err != nil {
			panic(err)
		}
		if o.Metrics != nil {
			store.SetTelemetry(rms.NewTelemetry(o.Metrics))
		}

		done := make(chan struct{})
		readers := make([]*serveReader, nReaders)
		var wg sync.WaitGroup
		for ri := range readers {
			rd := &serveReader{ok: true}
			readers[ri] = rd
			wg.Add(1)
			go func(ri int) {
				defer wg.Done()
				lastGen := uint64(0)
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					g := store.Current()
					if g.ID() < lastGen {
						rd.ok = false
					}
					lastGen = g.ID()
					u := probes[(ri+i)%len(probes)]
					for kind := 0; kind < 3; kind++ {
						start := time.Now()
						switch kind {
						case 0:
							if len(store.Current().Result()) > r {
								rd.ok = false
							}
						case 1:
							if _, err := store.Current().TopK(u, 10); err != nil {
								rd.ok = false
							}
						case 2:
							if _, err := store.Current().RegretRatioFor(u); err != nil {
								rd.ok = false
							}
						}
						d := time.Since(start)
						rd.reads[kind]++
						if len(rd.samples[kind]) < serveSampleCap {
							rd.samples[kind] = append(rd.samples[kind], d)
						}
					}
				}
			}(ri)
		}

		// The writer slides the window: every batch inserts serveBatch fresh
		// tuples and evicts the serveBatch oldest, so each ApplyBatch commit
		// publishes exactly one new generation under full reader load.
		window := make([]int, 0, n+serveBatch)
		for _, p := range ds.Points[:n] {
			window = append(window, p.ID)
		}
		fresh := ds.Points[n:]
		var writeOps atomic.Int64
		writeStart := time.Now()
		for b := 0; b < nBatches; b++ {
			batch := make([]rms.Update, 0, 2*serveBatch)
			for _, p := range fresh[b*serveBatch : (b+1)*serveBatch] {
				batch = append(batch, rms.Ins(rms.Point{ID: p.ID, Values: p.Coords}))
				window = append(window, p.ID)
			}
			for _, id := range window[:serveBatch] {
				batch = append(batch, rms.Del(id))
			}
			window = window[serveBatch:]
			if err := store.ApplyBatch(batch); err != nil {
				panic(err)
			}
			writeOps.Add(int64(len(batch)))
		}
		writeElapsed := time.Since(writeStart)
		close(done)
		wg.Wait()

		consistent := store.Current().ID() == uint64(nBatches+1)
		var samples [3][]time.Duration
		var reads [3]int
		for _, rd := range readers {
			consistent = consistent && rd.ok
			for kind := 0; kind < 3; kind++ {
				reads[kind] += rd.reads[kind]
				samples[kind] = append(samples[kind], rd.samples[kind]...)
			}
		}
		totalReads := reads[0] + reads[1] + reads[2]
		for kind, name := range serveKinds {
			lat := summarize(samples[kind])
			ratio := 0.0
			if lat.p50 > 0 {
				ratio = float64(lat.p99) / float64(lat.p50)
			}
			t.AddRow(fmt.Sprint(nReaders), name,
				fmt.Sprint(reads[kind]),
				fmt.Sprintf("%.0f", float64(reads[kind])/writeElapsed.Seconds()),
				fmtMicros(lat.p50), fmtMicros(lat.p99), fmtMicros(lat.max),
				fmt.Sprintf("%.1fx", ratio),
				fmt.Sprintf("%.0f", float64(writeOps.Load())/writeElapsed.Seconds()),
				fmt.Sprintf("%.0f", float64(nBatches)/writeElapsed.Seconds()),
				fmt.Sprintf("%.0f", float64(totalReads)/float64(nBatches)),
				fmt.Sprintf("%v", consistent))
		}
		store.Close()
	}
	t.Notes = append(t.Notes,
		"one writer streams sliding-window ApplyBatch commits for the whole run; readers never take a lock",
		"consistent = generation ids monotonic per reader, every read valid, final generation = initial + batches",
		"reads/s is per-kind (each reader cycles result, topk, regret every iteration)",
		"needs GOMAXPROCS > readers to show concurrency; single-core runs interleave rather than overlap",
		latResolutionNote)
	return t
}

// serveUtilities samples nonnegative unit-sum preference vectors for the
// query-serving read kinds.
func serveUtilities(d, count int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed + 7))
	out := make([][]float64, count)
	for i := range out {
		u := make([]float64, d)
		sum := 0.0
		for j := range u {
			u[j] = rng.Float64()
			sum += u[j]
		}
		for j := range u {
			u[j] /= sum
		}
		out[i] = u
	}
	return out
}
