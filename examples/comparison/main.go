// Comparison: FD-RMS against the static k-RMS algorithms from the paper's
// evaluation, on one dynamic workload. The static algorithms must recompute
// whenever the skyline changes; FD-RMS updates incrementally. This is a
// single-dataset, human-readable miniature of the full harness
// (cmd/rmsbench regenerates the paper's figures).
//
// Run with: go run ./examples/comparison
package main

import (
	"fmt"
	"math/rand"
	"time"

	"fdrms/rms"
)

func main() {
	const (
		n   = 4000
		dim = 4
		r   = 10
	)
	rng := rand.New(rand.NewSource(11))
	pts := make([]rms.Point, n)
	for i := range pts {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		pts[i] = rms.Point{ID: i, Values: v}
	}
	initial, inserts := pts[:n/2], pts[n/2:]

	// Dynamic: initialize once, then insert the second half.
	d, err := rms.NewDynamic(dim, initial, rms.Options{K: 1, R: r, Epsilon: 0.008, Seed: 5})
	if err != nil {
		fmt.Println("init error:", err)
		return
	}
	start := time.Now()
	for _, p := range inserts {
		if err := d.Insert(p); err != nil {
			fmt.Println("insert error:", err)
			return
		}
	}
	dynTotal := time.Since(start)
	dynMRR, err := rms.MaxRegretRatio(pts, d.Result(), dim, 1, 50000, 9)
	if err != nil {
		fmt.Println("regret error:", err)
		return
	}

	fmt.Printf("database: %d tuples, %d attributes; r = %d, k = 1\n", n, dim, r)
	fmt.Printf("%-12s %14s %14s %8s\n", "algorithm", "total-time", "per-insert", "mrr")
	fmt.Printf("%-12s %14v %14v %8.4f   (incremental over %d inserts)\n",
		"FD-RMS", dynTotal.Round(time.Microsecond),
		(dynTotal / time.Duration(len(inserts))).Round(time.Microsecond), dynMRR, len(inserts))

	// Static algorithms: one full recomputation on the final database, the
	// cost they would pay at EVERY skyline-changing update.
	for _, name := range []string{"Sphere", "HS", "eps-Kernel", "DMM-Greedy", "Greedy"} {
		start := time.Now()
		q, err := rms.Compute(name, pts, dim, 1, r, 5)
		if err != nil {
			fmt.Printf("%-12s error: %v\n", name, err)
			continue
		}
		dt := time.Since(start)
		mrr, err := rms.MaxRegretRatio(pts, q, dim, 1, 50000, 9)
		if err != nil {
			fmt.Printf("%-12s regret error: %v\n", name, err)
			continue
		}
		fmt.Printf("%-12s %14v %14s %8.4f   (one from-scratch run)\n",
			name, dt.Round(time.Microsecond), "-", mrr)
	}
	fmt.Println("\nA static algorithm pays its from-scratch cost at every skyline change;")
	fmt.Println("FD-RMS pays the per-insert cost above. See cmd/rmsbench for the full study.")
}
