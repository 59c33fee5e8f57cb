package bench

import (
	"time"

	"fdrms/internal/dataset"
)

// Options controls experiment scale. Zero values are replaced by defaults
// via withDefaults.
type Options struct {
	// Scale is the fraction of the paper's dataset sizes to use
	// (1.0 = full paper scale). Default 0.05.
	Scale float64
	// SynthN is the synthetic dataset size before scaling (paper: 100K).
	SynthN int
	// SynthD is the default synthetic dimensionality (paper: 6).
	SynthD int
	// MRRSamples is the utility test set size for quality evaluation
	// (paper: 500K). Default 20000.
	MRRSamples int
	// MaxRecomputes caps how many static recomputations are actually timed
	// per run (see workload.RunStatic). Default 10.
	MaxRecomputes int
	// StaticBudget skips a static algorithm on a dataset when a single
	// from-scratch run exceeds this duration (reported as "-", like the
	// paper's missing curves). Default 20s.
	StaticBudget time.Duration
	// M is the FD-RMS utility-sample upper bound. Default 2048.
	M int
	// Seed drives all sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.SynthN == 0 {
		o.SynthN = 100000
	}
	if o.SynthD == 0 {
		o.SynthD = 6
	}
	if o.MRRSamples == 0 {
		o.MRRSamples = 20000
	}
	if o.MaxRecomputes == 0 {
		o.MaxRecomputes = 10
	}
	if o.StaticBudget == 0 {
		o.StaticBudget = 20 * time.Second
	}
	if o.M == 0 {
		o.M = 2048
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// QuickOptions returns a tiny configuration for smoke benchmarks
// (bench_test.go): small datasets, few samples, still exercising every
// code path.
func QuickOptions() Options {
	return Options{
		Scale:         0.02,
		SynthN:        25000,
		SynthD:        6,
		MRRSamples:    2000,
		MaxRecomputes: 3,
		StaticBudget:  5 * time.Second,
		M:             1024,
		Seed:          1,
	}
}

// DatasetNames lists the six evaluation datasets in the paper's order.
var DatasetNames = []string{"BB", "AQ", "CT", "Movie", "Indep", "AntiCor"}

// loadDataset materializes a named dataset at the configured scale.
func loadDataset(name string, o Options) *dataset.Dataset {
	switch name {
	case "Indep":
		return dataset.Indep(scaled(o.SynthN, o.Scale), o.SynthD, o.Seed)
	case "AntiCor":
		return dataset.AntiCor(scaled(o.SynthN, o.Scale), o.SynthD, o.Seed)
	default:
		return dataset.Simulated(name, o.Scale, o.Seed)
	}
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 64 {
		v = 64
	}
	return v
}

// defaultR returns the paper's per-dataset result size for Figs. 5–8:
// r = 20 on BB (its regret hits zero above r = 25), r = 50 elsewhere.
func defaultR(name string) int {
	if name == "BB" {
		return 20
	}
	return 50
}

// capR bounds the result size to a twenty-fifth of the database so that
// smoke-scale runs stay meaningful — a cover of r sets needs at least r
// tuples that are extreme in some direction, which tiny samples lack. At
// the paper's scale the cap never binds (n/25 >> 100 for every
// configuration the paper uses).
func capR(r, n int) int {
	c := n / 25
	if c < 2 {
		c = 2
	}
	if r > c {
		return c
	}
	return r
}

// capRs maps a result-size grid through capR, deduplicating while keeping
// order (small smoke datasets can collapse several grid values to the cap).
func capRs(rs []int, n int) []int {
	var out []int
	seen := make(map[int]bool)
	for _, r := range rs {
		c := capR(r, n)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// fig7R returns Fig. 7's result sizes: r = 10 on BB and Indep, 50 elsewhere.
func fig7R(name string) int {
	if name == "BB" || name == "Indep" {
		return 10
	}
	return 50
}
