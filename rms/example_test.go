package rms_test

import (
	"fmt"

	"fdrms/rms"
)

// The database of Fig. 1 of the paper: 8 tuples scored on two attributes.
func paperDatabase() []rms.Point {
	return []rms.Point{
		{ID: 1, Values: []float64{0.2, 1.0}},
		{ID: 2, Values: []float64{0.6, 0.8}},
		{ID: 3, Values: []float64{0.7, 0.5}},
		{ID: 4, Values: []float64{1.0, 0.1}},
		{ID: 5, Values: []float64{0.4, 0.3}},
		{ID: 6, Values: []float64{0.2, 0.7}},
		{ID: 7, Values: []float64{0.3, 0.9}},
		{ID: 8, Values: []float64{0.6, 0.6}},
	}
}

func ExampleNewDynamic() {
	// Maintain a 3-tuple representative set under updates (the paper's
	// Example 3: k=1, r=3).
	db, err := rms.NewDynamic(2, paperDatabase(), rms.Options{
		K: 1, R: 3, Epsilon: 0.002, MaxUtilities: 64, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("initial:", ids(db.Result()))

	db.Insert(rms.Point{ID: 9, Values: []float64{0.9, 0.6}})
	fmt.Println("after insert p9:", ids(db.Result()))

	db.Delete(1)
	fmt.Println("after delete p1:", ids(db.Result()))
	// Output:
	// initial: [1 2 4]
	// after insert p9: [1 4 9]
	// after delete p1: [4 7 9]
}

func ExampleCompute() {
	// One-shot static computation with the SPHERE algorithm.
	q, err := rms.Compute("Sphere", paperDatabase(), 2, 1, 3, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(q) <= 3)
	// Output: true
}

func ExampleSkyline() {
	sky, err := rms.Skyline(paperDatabase(), 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(ids(sky))
	// Output: [1 2 3 4 7]
}

func ExampleExactMaxRegretRatio() {
	p := paperDatabase()
	sky, err := rms.Skyline(p, 2)
	if err != nil {
		panic(err)
	}
	// The full skyline leaves zero regret for every linear preference.
	v, err := rms.ExactMaxRegretRatio(p, sky, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.4f\n", v)
	// Output: 0.0000
}

func ids(ps []rms.Point) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}
