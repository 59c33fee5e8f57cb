// Persistent worker pool for the batched update path.
//
// ApplyBatch used to spawn one goroutine per shard per parallel run, paying
// goroutine creation and stack setup on every run — a fixed tax that the
// fan-out only amortizes on large phases. The pool replaces that with a
// fixed fleet of LONG-LIVED goroutines, created lazily the first time a run
// actually goes parallel and parked on one shared job queue between phases.
//
// The queue carries SHARD INDICES, not work descriptions: the dispatching
// writer stores the phase descriptor in pool.cur, enqueues every active
// shard, and waits on the shared WaitGroup. Decoupling workers from shards
// is what balances skewed phases: with one goroutine pinned per shard
// (the previous design), a phase whose tasks cluster in one contiguous id
// block ran at the speed of that one shard while the other workers idled.
// Here any free worker picks up the next pending shard, and the dispatcher
// enqueues shards LARGEST FIRST (longest-processing-time order), the
// classic greedy bound for makespan — combined with the over-partitioned
// default shard count (see DefaultShards) this keeps every core busy until
// the tail of the phase. Whichever worker runs a shard, it is the only
// goroutine touching that shard and its result slot for the phase, so the
// memory model is unchanged: the channel send happens-before the worker's
// reads, and the worker's writes happen-before wg.Wait returns.
//
// Close tears the pool down (idempotent, safe if the pool never started).
// A closed engine falls back to inline phase execution rather than
// panicking, so read paths and stray late batches keep working.
package topk

import (
	"runtime"
	"sync"
)

// phaseJob describes one parallel phase dispatch. Exactly one of
// insRun/delRun is non-nil, mirroring runPhase.
type phaseJob struct {
	del    bool
	insRun []insOp
	delRun []Op
	base   uint64
	runPos map[int]int
}

// pool is the engine's persistent worker fleet. Fields are written by the
// engine's single writer between phases; the queue carries the
// cross-goroutine handoff.
type pool struct {
	queue   chan int       // shard indices of the in-flight phase
	wg      sync.WaitGroup // counts in-flight shard jobs of the current phase
	cur     phaseJob       // current phase; written before any send, cleared after wg.Wait
	order   []int          // dispatch-order scratch (largest shard first)
	workers int
	started bool
	closed  bool
}

// ensurePool lazily starts the worker fleet on first parallel use: one
// worker per available CPU, never more than one per shard (extra goroutines
// could only contend for the queue).
func (e *Engine) ensurePool() bool {
	if e.pool.closed {
		return false
	}
	if !e.pool.started {
		w := runtime.GOMAXPROCS(0)
		if w < 2 {
			// Keep two workers even on a single-core host so the pooled
			// hand-off path (and its synchronization) is exercised — and
			// race-tested — everywhere, not only on big machines.
			w = 2
		}
		if w > len(e.shards) {
			w = len(e.shards)
		}
		e.pool.workers = w
		e.pool.queue = make(chan int, len(e.shards))
		for i := 0; i < w; i++ {
			// The queue is passed by value: a worker that stays idle until
			// Close would otherwise read e.pool.queue unsynchronized against
			// Close's nil-ing of the field (goroutine creation orders the
			// argument read; nothing orders a later field read).
			go e.poolWorker(e.pool.queue)
		}
		e.pool.started = true
	}
	return true
}

// poolWorker is one long-lived fleet goroutine: it drains shard indices
// until the engine closes the queue. The read of pool.cur is ordered after
// the dispatcher's write by the channel receive, and the previous phase's
// wg.Wait orders that write after every read of the prior descriptor.
func (e *Engine) poolWorker(queue chan int) {
	for s := range queue {
		job := e.pool.cur
		e.phaseWork(job.del, s, job.insRun, job.delRun, job.base, job.runPos)
		e.pool.wg.Done()
	}
}

// dispatch runs one parallel phase over the active shards through the pool:
// the phase descriptor is published, the active shards are enqueued largest
// task-count first, and the call returns once every shard's worker is done.
func (e *Engine) dispatch(job phaseJob, active int) {
	order := e.pool.order[:0]
	for s := range e.shards {
		if e.phaseTasks(job.del, s) > 0 {
			order = append(order, s)
		}
	}
	// Insertion sort by descending task count (stable on shard index):
	// shard counts are small, and this avoids any closure or interface
	// boxing on the steady-state path.
	for i := 1; i < len(order); i++ {
		s, n := order[i], e.phaseTasks(job.del, order[i])
		j := i - 1
		for j >= 0 && e.phaseTasks(job.del, order[j]) < n {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = s
	}
	e.pool.order = order
	e.pool.cur = job
	e.ShardJobs += active
	e.pool.wg.Add(active)
	for _, s := range order {
		e.pool.queue <- s
	}
	e.pool.wg.Wait()
	e.pool.cur = phaseJob{} // don't pin the run's tuples past the phase
}

// Close tears down the worker pool. It is idempotent, safe to call on an
// engine whose pool never started, and must not race a concurrent
// ApplyBatch (the engine is single-writer by contract). After Close the
// engine remains fully usable; parallel phases simply run inline.
func (e *Engine) Close() {
	if e.pool.closed {
		return
	}
	e.pool.closed = true
	if !e.pool.started {
		return
	}
	close(e.pool.queue)
	e.pool.queue = nil
	e.pool.started = false
}
