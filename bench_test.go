// Package fdrms ties one testing.B benchmark to every table and figure of
// the paper's evaluation (Section IV). Each benchmark regenerates its
// artifact end-to-end at smoke scale (bench.QuickOptions); the larger
// sweeps recorded in EXPERIMENTS.md are driven by cmd/rmsbench.
//
//	go test -bench=. -benchmem
package fdrms

import (
	"testing"

	"fdrms/internal/bench"
)

// BenchmarkTable1DatasetStats regenerates Table I (dataset statistics).
func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := bench.Table1(bench.QuickOptions()); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4SkylineSizes regenerates Fig. 4 (skyline sizes of the
// synthetic dataset families).
func BenchmarkFig4SkylineSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := bench.Fig4(bench.QuickOptions()); len(ts) != 2 {
			b.Fatal("unexpected table count")
		}
	}
}

// BenchmarkFig5EpsilonSweep regenerates Fig. 5 (effect of ε on FD-RMS) on
// the Indep dataset.
func BenchmarkFig5EpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := bench.Fig5(bench.QuickOptions(), "Indep"); len(ts) != 1 {
			b.Fatal("unexpected table count")
		}
	}
}

// BenchmarkFig6ResultSize regenerates Fig. 6 (effect of the result size r,
// all algorithms) on the Indep dataset.
func BenchmarkFig6ResultSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := bench.Fig6(bench.QuickOptions(), "Indep"); len(ts) != 1 {
			b.Fatal("unexpected table count")
		}
	}
}

// BenchmarkFig7KSweep regenerates Fig. 7 (effect of k, the k-capable
// algorithms) on the Indep dataset.
func BenchmarkFig7KSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := bench.Fig7(bench.QuickOptions(), "Indep"); len(ts) != 1 {
			b.Fatal("unexpected table count")
		}
	}
}

// BenchmarkFig8Dimensionality regenerates Fig. 8a/8b (scalability in d).
func BenchmarkFig8Dimensionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := bench.Fig8Dim(bench.QuickOptions()); len(ts) != 2 {
			b.Fatal("unexpected table count")
		}
	}
}

// BenchmarkFig8DatasetSize regenerates Fig. 8c/8d (scalability in n).
func BenchmarkFig8DatasetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts := bench.Fig8Size(bench.QuickOptions()); len(ts) != 2 {
			b.Fatal("unexpected table count")
		}
	}
}

// BenchmarkAblationCover regenerates the stable-cover-vs-re-greedy ablation
// (EXPERIMENTS.md §5.1).
func BenchmarkAblationCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := bench.AblationCover(bench.QuickOptions(), "Indep"); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAblationCone regenerates the cone-tree pruning ablation
// (EXPERIMENTS.md §5.2).
func BenchmarkAblationCone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := bench.AblationCone(bench.QuickOptions(), "Indep"); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAblationTopK regenerates the top-k fast-path ablation
// (EXPERIMENTS.md §5.3).
func BenchmarkAblationTopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := bench.AblationTopK(bench.QuickOptions(), "Indep"); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}
