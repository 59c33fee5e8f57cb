package kdtree

// QueryScratch holds the reusable buffers of one query stream: the
// branch-and-bound frontier, the result ranking heap, the threshold-sweep
// output, the DFS stack, and the query utility's axis order. A scratch
// belongs to exactly one goroutine; the Into query variants reuse its
// storage, so a warmed-up scratch makes steady-state queries
// allocation-free. Results returned by Into variants alias the scratch and
// are valid only until the next query through it — copy them out to
// retain.
//
// The zero value is ready to use.
type QueryScratch struct {
	frontier []frontierEntry // max-heap of unexplored boxes by score UB
	results  []Result        // min-heap of the k best kept results
	out      []Result        // threshold-sweep / output buffer
	stack    []int32         // DFS stack of AtLeastAtInto
	axes     []int           // the query utility's axes by increasing weight
	nodes    uint64          // nodes expanded by the queries through sc
}

// Nodes returns the number of tree nodes the queries through sc have
// expanded so far: every node whose point a query scored and whose children
// it examined. It counts work, not time: a query's count is the difference
// across it, and the same query on the same tree expands the same nodes.
func (sc *QueryScratch) Nodes() uint64 { return sc.nodes }

// frontierEntry is one unexplored subtree in the branch-and-bound frontier,
// keyed by its score upper bound.
type frontierEntry struct {
	ub  float64
	idx int32
}

// pushFrontier adds an entry to the max-heap (largest ub at the root).
func pushFrontier(h []frontierEntry, e frontierEntry) []frontierEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].ub >= h[i].ub {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// popFrontier removes and returns the max-ub entry.
func popFrontier(h []frontierEntry) (frontierEntry, []frontierEntry) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].ub > h[m].ub {
			m = l
		}
		if r < n && h[r].ub > h[m].ub {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, h
}

// resultWorse reports whether a ranks below b under the total order
// (score descending, then point ID ascending): among equal scores the
// larger id is the worse result and is evicted first, so the kept k-set is
// a deterministic function of the candidate set alone — not of the
// traversal order, which varies with the tree's structure.
func resultWorse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Point.ID > b.Point.ID
}

// pushResult adds r to the min-heap whose root is the WORST kept result.
func pushResult(h []Result, r Result) []Result {
	h = append(h, r)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !resultWorse(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// fixResultRoot restores the heap property after the root was replaced.
func fixResultRoot(h []Result) {
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && resultWorse(h[l], h[m]) {
			m = l
		}
		if r < n && resultWorse(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
