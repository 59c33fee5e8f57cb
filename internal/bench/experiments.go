package bench

import (
	"fmt"
	"math"
	"time"

	"fdrms/internal/baseline"
	"fdrms/internal/core"
	"fdrms/internal/dataset"
	"fdrms/internal/geom"
	"fdrms/internal/skyline"
	"fdrms/internal/tune"
	"fdrms/internal/workload"
)

// Table1 reproduces Table I: per-dataset n, d and skyline size, with the
// paper's full-scale numbers alongside for comparison.
func Table1(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title:  "Table I: statistics of datasets",
		Header: []string{"dataset", "n", "d", "#skylines", "sky%", "paper-n", "paper-#sky", "paper-sky%"},
		Notes: []string{
			fmt.Sprintf("real datasets simulated at scale %.2f (see EXPERIMENTS.md §1.2)", o.Scale),
		},
	}
	for _, name := range DatasetNames {
		ds := loadDataset(name, o)
		sky := len(skyline.Compute(ds.Points))
		row := []string{
			name,
			fmt.Sprintf("%d", ds.N()),
			fmt.Sprintf("%d", ds.Dim),
			fmt.Sprintf("%d", sky),
			fmt.Sprintf("%.2f%%", 100*float64(sky)/float64(ds.N())),
		}
		if spec, ok := dataset.RealSpecByName(name); ok {
			row = append(row,
				fmt.Sprintf("%d", spec.PaperN),
				fmt.Sprintf("%d", spec.PaperSky),
				fmt.Sprintf("%.2f%%", 100*float64(spec.PaperSky)/float64(spec.PaperN)))
		} else {
			row = append(row, "100K-1M", "see Fig.4", "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig4 reproduces Fig. 4: skyline sizes of the synthetic families, varying
// the dimensionality (left) and the dataset size (right).
func Fig4(o Options) []*Table {
	o = o.withDefaults()
	byD := &Table{
		Title:  "Fig 4 (left): skyline size vs dimensionality (n=" + fmt.Sprint(scaled(o.SynthN, o.Scale)) + ")",
		Header: []string{"d", "Indep", "AntiCor"},
	}
	n := scaled(o.SynthN, o.Scale)
	for d := 4; d <= 10; d++ {
		i := len(skyline.Compute(dataset.Indep(n, d, o.Seed).Points))
		a := len(skyline.Compute(dataset.AntiCor(n, d, o.Seed).Points))
		byD.AddRow(fmt.Sprint(d), fmt.Sprint(i), fmt.Sprint(a))
	}
	byN := &Table{
		Title:  "Fig 4 (right): skyline size vs dataset size (d=" + fmt.Sprint(o.SynthD) + ")",
		Header: []string{"n", "Indep", "AntiCor"},
	}
	for mult := 1; mult <= 10; mult++ {
		nn := scaled(o.SynthN*mult, o.Scale)
		i := len(skyline.Compute(dataset.Indep(nn, o.SynthD, o.Seed).Points))
		a := len(skyline.Compute(dataset.AntiCor(nn, o.SynthD, o.Seed).Points))
		byN.AddRow(fmt.Sprint(nn), fmt.Sprint(i), fmt.Sprint(a))
	}
	return []*Table{byD, byN}
}

// epsLadder is the paper's ε grid (Section III-C); see tune.EpsLadder.
func epsLadder() []float64 { return tune.EpsLadder() }

// Fig5 reproduces Fig. 5: FD-RMS update time and regret as ε sweeps the
// ladder, one table per dataset (k=1, r=20 on BB / 50 elsewhere).
func Fig5(o Options, names ...string) []*Table {
	o = o.withDefaults()
	if len(names) == 0 {
		names = DatasetNames
	}
	var out []*Table
	for _, name := range names {
		ds := loadDataset(name, o)
		w := workload.Generate(ds, o.Seed)
		r := capR(defaultR(name), ds.N())
		evs := workload.NewEvaluators(w, 1, o.MRRSamples, o.Seed+100)
		t := &Table{
			Title:  fmt.Sprintf("Fig 5: effect of eps on FD-RMS — %s (k=1, r=%d)", name, r),
			Header: []string{"eps", "update-time", "mrr", "m"},
		}
		for _, eps := range epsLadder() {
			cfg := core.Config{K: 1, R: r, Eps: eps, M: o.M, Seed: o.Seed}
			stats, err := workload.RunFDRMS(w, cfg)
			if err != nil {
				t.AddRow(fmt.Sprintf("%g", eps), "error", err.Error(), "-")
				continue
			}
			t.AddRow(fmt.Sprintf("%g", eps), fmtDur(stats.AvgUpdate),
				fmtMRR(evs.MeanMRR(stats)), fmt.Sprint(stats.FinalStats.M))
			if stats.FinalStats.M >= o.M {
				t.Notes = append(t.Notes,
					fmt.Sprintf("eps=%g saturated m=M=%d; larger eps values use the same sample budget", eps, o.M))
				break // the paper stops growing eps once M is exhausted
			}
		}
		out = append(out, t)
	}
	return out
}

// TuneEps is the paper's trial-and-error ε selection; see tune.TuneEps
// (re-exported here so the experiment code reads like the paper's text).
func TuneEps(pts []geom.Point, dim, k, r, m int, seed int64) float64 {
	return tune.TuneEps(pts, dim, k, r, m, seed)
}

// staticFeasible estimates whether one from-scratch run of alg fits the
// budget, probing growing prefixes of the database and extrapolating.
// Skipped combinations mirror the paper's missing curves (e.g., GREEDY
// beyond r=80, DMM beyond d=7).
func staticFeasible(alg baseline.Algorithm, pts []geom.Point, dim, k, r int, budget time.Duration) bool {
	sizes := []int{250, 1000, 4000, len(pts)}
	var lastT time.Duration
	lastN := 0
	for _, n := range sizes {
		if n > len(pts) {
			n = len(pts)
		}
		if n <= lastN {
			continue
		}
		if lastN > 0 {
			// Extrapolate with the measured growth exponent (at least linear).
			alpha := 1.0
			if lastT > 0 {
				alpha = 2.0
			}
			proj := time.Duration(float64(lastT) * math.Pow(float64(n)/float64(lastN), alpha))
			if proj > budget {
				return false
			}
		}
		start := time.Now()
		alg.Compute(pts[:n], dim, k, r)
		lastT = time.Since(start)
		if lastT > budget {
			return false
		}
		lastN = n
	}
	return true
}

// runOne executes one (algorithm, workload) cell for the figure tables.
func runOne(name string, alg baseline.Algorithm, w *workload.Workload,
	evs *workload.Evaluators, k, r int, o Options, fdEps float64) (timeStr, mrrStr string) {
	if name == "FD-RMS" {
		cfg := core.Config{K: k, R: r, Eps: fdEps, M: o.M, Seed: o.Seed}
		stats, err := workload.RunFDRMS(w, cfg)
		if err != nil {
			return "error", "-"
		}
		return fmtDur(stats.AvgUpdate), fmtMRR(evs.MeanMRR(stats))
	}
	if !alg.SupportsK(k) {
		return "-", "-"
	}
	if !staticFeasible(alg, w.Initial, w.Dim, k, r, o.StaticBudget) {
		return "-", "-" // too slow at this scale, as in the paper's gaps
	}
	stats := workload.RunStatic(w, alg, k, r, o.MaxRecomputes)
	return fmtDur(stats.AvgUpdate), fmtMRR(evs.MeanMRR(stats))
}

// Fig6 reproduces Fig. 6: update time and regret of every algorithm as the
// result size r varies (k = 1), one table per dataset.
func Fig6(o Options, names ...string) []*Table {
	o = o.withDefaults()
	if len(names) == 0 {
		names = DatasetNames
	}
	algs := baseline.All(o.Seed)
	var out []*Table
	for _, name := range names {
		ds := loadDataset(name, o)
		w := workload.Generate(ds, o.Seed)
		evs := workload.NewEvaluators(w, 1, o.MRRSamples, o.Seed+200)
		rs := []int{10, 40, 70, 100}
		if name == "BB" {
			rs = []int{5, 10, 15, 20, 25}
		}
		rs = capRs(rs, ds.N())
		t := &Table{
			Title:  fmt.Sprintf("Fig 6: varying result size r — %s (k=1)", name),
			Header: []string{"r", "algorithm", "update-time", "mrr"},
		}
		for _, r := range rs {
			eps := TuneEps(w.Initial, w.Dim, 1, r, o.M, o.Seed)
			tm, mr := runOne("FD-RMS", nil, w, evs, 1, r, o, eps)
			t.AddRow(fmt.Sprint(r), "FD-RMS", tm, mr)
			for _, alg := range algs {
				tm, mr := runOne(alg.Name(), alg, w, evs, 1, r, o, eps)
				t.AddRow(fmt.Sprint(r), alg.Name(), tm, mr)
			}
		}
		out = append(out, t)
	}
	return out
}

// Fig7 reproduces Fig. 7: update time and regret as k varies from 1 to 5,
// for the k-capable algorithms (FD-RMS, Greedy*, eps-Kernel, HS).
func Fig7(o Options, names ...string) []*Table {
	o = o.withDefaults()
	if len(names) == 0 {
		names = DatasetNames
	}
	algs := []baseline.Algorithm{
		baseline.NewGreedyStar(o.Seed),
		baseline.NewEpsKernel(o.Seed),
		baseline.NewHittingSet(o.Seed),
	}
	var out []*Table
	for _, name := range names {
		ds := loadDataset(name, o)
		w := workload.Generate(ds, o.Seed)
		r := capR(fig7R(name), ds.N())
		t := &Table{
			Title:  fmt.Sprintf("Fig 7: varying k — %s (r=%d)", name, r),
			Header: []string{"k", "algorithm", "update-time", "mrr"},
		}
		for k := 1; k <= 5; k++ {
			evs := workload.NewEvaluators(w, k, o.MRRSamples, o.Seed+300+int64(k))
			eps := TuneEps(w.Initial, w.Dim, k, r, o.M, o.Seed)
			tm, mr := runOne("FD-RMS", nil, w, evs, k, r, o, eps)
			t.AddRow(fmt.Sprint(k), "FD-RMS", tm, mr)
			for _, alg := range algs {
				tm, mr := runOne(alg.Name(), alg, w, evs, k, r, o, eps)
				t.AddRow(fmt.Sprint(k), alg.Name(), tm, mr)
			}
		}
		out = append(out, t)
	}
	return out
}

// Fig8 reproduces Fig. 8: scalability in the dimensionality d (tables a, b)
// and the dataset size n (tables c, d) on the synthetic families
// (k=1, r=50, all algorithms).
func Fig8(o Options) []*Table {
	return append(Fig8Dim(o), Fig8Size(o)...)
}

// Fig8Dim is the dimensionality half of Fig. 8 (tables a and b).
func Fig8Dim(o Options) []*Table {
	o = o.withDefaults()
	algs := baseline.All(o.Seed)
	r := 50
	var out []*Table
	for _, family := range []string{"Indep", "AntiCor"} {
		t := &Table{
			Title:  fmt.Sprintf("Fig 8 (a/b): varying dimensionality d — %s (k=1, r=%d, n=%d)", family, r, scaled(o.SynthN, o.Scale)),
			Header: []string{"d", "algorithm", "update-time", "mrr"},
		}
		for d := 4; d <= 10; d += 2 {
			var ds *dataset.Dataset
			if family == "Indep" {
				ds = dataset.Indep(scaled(o.SynthN, o.Scale), d, o.Seed)
			} else {
				ds = dataset.AntiCor(scaled(o.SynthN, o.Scale), d, o.Seed)
			}
			w := workload.Generate(ds, o.Seed)
			evs := workload.NewEvaluators(w, 1, o.MRRSamples, o.Seed+400+int64(d))
			rr := capR(r, ds.N())
			eps := TuneEps(w.Initial, w.Dim, 1, rr, o.M, o.Seed)
			tm, mr := runOne("FD-RMS", nil, w, evs, 1, rr, o, eps)
			t.AddRow(fmt.Sprint(d), "FD-RMS", tm, mr)
			for _, alg := range algs {
				tm, mr := runOne(alg.Name(), alg, w, evs, 1, rr, o, eps)
				t.AddRow(fmt.Sprint(d), alg.Name(), tm, mr)
			}
		}
		out = append(out, t)
	}
	return out
}

// Fig8Size is the dataset-size half of Fig. 8 (tables c and d).
func Fig8Size(o Options) []*Table {
	o = o.withDefaults()
	algs := baseline.All(o.Seed)
	r := 50
	var out []*Table
	for _, family := range []string{"Indep", "AntiCor"} {
		t := &Table{
			Title:  fmt.Sprintf("Fig 8 (c/d): varying dataset size n — %s (k=1, r=%d, d=%d)", family, r, o.SynthD),
			Header: []string{"n", "algorithm", "update-time", "mrr"},
		}
		for _, mult := range []int{1, 2, 5, 10} {
			n := scaled(o.SynthN*mult, o.Scale)
			var ds *dataset.Dataset
			if family == "Indep" {
				ds = dataset.Indep(n, o.SynthD, o.Seed)
			} else {
				ds = dataset.AntiCor(n, o.SynthD, o.Seed)
			}
			w := workload.Generate(ds, o.Seed)
			evs := workload.NewEvaluators(w, 1, o.MRRSamples, o.Seed+500+int64(mult))
			rr := capR(r, ds.N())
			eps := TuneEps(w.Initial, w.Dim, 1, rr, o.M, o.Seed)
			tm, mr := runOne("FD-RMS", nil, w, evs, 1, rr, o, eps)
			t.AddRow(fmt.Sprint(n), "FD-RMS", tm, mr)
			for _, alg := range algs {
				tm, mr := runOne(alg.Name(), alg, w, evs, 1, rr, o, eps)
				t.AddRow(fmt.Sprint(n), alg.Name(), tm, mr)
			}
		}
		out = append(out, t)
	}
	return out
}
