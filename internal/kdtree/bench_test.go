package kdtree

import (
	"sync"
	"testing"

	"fdrms/internal/dataset"
	"fdrms/internal/geom"
)

// The AntiCor benchmarks query the serving benchmark's database shape:
// AntiCor, n = 100k, d = 6 (seed 1), whose tuples all sum to about d/2, with
// 4,096 random utilities taken in turn. Each reports nodes/op, the nodes a
// query expands. At -benchtime 4096x every utility is asked once, so the
// count repeats exactly from run to run; CI gates it for the top-k query.
const antiCorUtilities = 4096

var antiCorSetup = sync.OnceValues(func() (*View, []geom.Vector) {
	ds := dataset.AntiCor(100000, 6, 1)
	return New(6, ds.Points).View(), geom.NewUnitSampler(6, 2).SampleN(antiCorUtilities)
})

// reportNodes reports the nodes sc expanded since start, per operation.
func reportNodes(b *testing.B, sc *QueryScratch, start uint64) {
	b.ReportMetric(float64(sc.Nodes()-start)/float64(b.N), "nodes/op")
}

func BenchmarkAntiCorTopKInto(b *testing.B) {
	v, us := antiCorSetup()
	var sc QueryScratch
	v.TopKInto(us[0], 10, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	start := sc.Nodes()
	for i := 0; i < b.N; i++ {
		v.TopKInto(us[i%len(us)], 10, &sc)
	}
	reportNodes(b, &sc, start)
}

func BenchmarkAntiCorKthScoreInto(b *testing.B) {
	v, us := antiCorSetup()
	var sc QueryScratch
	v.KthScoreInto(us[0], 1, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	start := sc.Nodes()
	for i := 0; i < b.N; i++ {
		v.KthScoreInto(us[i%len(us)], 1, &sc)
	}
	reportNodes(b, &sc, start)
}

// BenchmarkAntiCorAtLeastInto sweeps at 0.99·ω₁, a threshold in the range
// FD-RMS uses for Φ_{1,ε}.
func BenchmarkAntiCorAtLeastInto(b *testing.B) {
	v, us := antiCorSetup()
	var sc QueryScratch
	taus := make([]float64, len(us))
	for i, u := range us {
		w, _ := v.KthScoreInto(u, 1, &sc)
		taus[i] = 0.99 * w
	}
	v.AtLeastInto(us[0], taus[0], &sc)
	b.ReportAllocs()
	b.ResetTimer()
	start := sc.Nodes()
	for i := 0; i < b.N; i++ {
		v.AtLeastInto(us[i%len(us)], taus[i%len(us)], &sc)
	}
	reportNodes(b, &sc, start)
}
