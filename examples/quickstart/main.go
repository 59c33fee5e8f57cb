// Quickstart: the worked example of the FD-RMS paper (Figs. 1 and 3) on an
// 8-tuple two-dimensional database — build a dynamic k-RMS structure, read
// the representative set, then watch it adapt to an insertion and a
// deletion.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fdrms/rms"
)

func main() {
	// The database of Fig. 1: 8 tuples with two scores in [0, 1].
	db := []rms.Point{
		{ID: 1, Values: []float64{0.2, 1.0}},
		{ID: 2, Values: []float64{0.6, 0.8}},
		{ID: 3, Values: []float64{0.7, 0.5}},
		{ID: 4, Values: []float64{1.0, 0.1}},
		{ID: 5, Values: []float64{0.4, 0.3}},
		{ID: 6, Values: []float64{0.2, 0.7}},
		{ID: 7, Values: []float64{0.3, 0.9}},
		{ID: 8, Values: []float64{0.6, 0.6}},
	}

	// RMS(1, 3): keep 3 tuples such that every linear preference finds one
	// of them nearly as good as its true favourite.
	d, err := rms.NewDynamic(2, db, rms.Options{K: 1, R: 3, Epsilon: 0.002, MaxUtilities: 64, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	report := func(stage string, P []rms.Point) {
		res := d.Result()
		mrr, err := rms.MaxRegretRatio(P, res, 2, 1, 20000, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s result=%v  max 1-regret ratio=%.4f\n", stage, ids(res), mrr)
	}
	report("initial (Fig. 3b)", db)

	// Fig. 3c: insert p9 = (0.9, 0.6). It dominates p3 and p8 and becomes a
	// strong representative immediately.
	p9 := rms.Point{ID: 9, Values: []float64{0.9, 0.6}}
	if err := d.Insert(p9); err != nil {
		log.Fatal(err)
	}
	db = append(db, p9)
	report("after inserting p9", db)

	// Fig. 3d: delete p1 = (0.2, 1.0), the best tuple for rating-focused
	// users; the structure promotes a replacement.
	d.Delete(1)
	db = remove(db, 1)
	report("after deleting p1", db)

	// The skyline for reference: every answer is drawn from it.
	sky, err := rms.Skyline(db, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %v\n", "skyline", ids(sky))
}

func ids(ps []rms.Point) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

func remove(ps []rms.Point, id int) []rms.Point {
	out := ps[:0]
	for _, p := range ps {
		if p.ID != id {
			out = append(out, p)
		}
	}
	return out
}
