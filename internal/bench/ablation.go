package bench

import (
	"fmt"
	"time"

	"fdrms/internal/core"
	"fdrms/internal/workload"
)

// AblationCover compares FD-RMS's incremental stable-cover maintenance
// against a variant that re-runs GREEDY on the set system after every
// operation (EXPERIMENTS.md §5.1). Quality stays in the same approximation
// class; the time gap is the payoff of the stability machinery.
func AblationCover(o Options, names ...string) *Table {
	o = o.withDefaults()
	if len(names) == 0 {
		names = []string{"Indep", "AntiCor"}
	}
	t := &Table{
		Title:  "Ablation: stable-cover maintenance vs per-op re-greedy",
		Header: []string{"dataset", "variant", "update-time", "mrr"},
	}
	for _, name := range names {
		ds := loadDataset(name, o)
		w := workload.Generate(ds, o.Seed)
		r := capR(defaultR(name), ds.N())
		eps := TuneEps(w.Initial, w.Dim, 1, r, o.M, o.Seed)
		cfg := core.Config{K: 1, R: r, Eps: eps, M: o.M, Seed: o.Seed}
		evs := workload.NewEvaluators(w, 1, o.MRRSamples, o.Seed+600)

		stats, err := workload.RunFDRMS(w, cfg)
		if err != nil {
			t.AddRow(name, "stable", "error", err.Error())
			continue
		}
		t.AddRow(name, "stable", fmtDur(stats.AvgUpdate), fmtMRR(evs.MeanMRR(stats)))

		re, err := runRegreedy(w, cfg)
		if err != nil {
			t.AddRow(name, "re-greedy", "error", err.Error())
			continue
		}
		t.AddRow(name, "re-greedy", fmtDur(re.AvgUpdate), fmtMRR(evs.MeanMRR(re)))
	}
	return t
}

// runRegreedy replays the workload rebuilding the cover from scratch after
// every operation.
func runRegreedy(w *workload.Workload, cfg core.Config) (*workload.RunStats, error) {
	f, err := core.New(w.Dim, w.Initial, cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	stats := &workload.RunStats{Algorithm: "FD-RMS-regreedy", TotalOps: len(w.Ops)}
	var total time.Duration
	cps := w.Checkpoints()
	next := 0
	for i, op := range w.Ops {
		start := time.Now()
		if op.Insert {
			f.Insert(op.Point)
		} else {
			f.Delete(op.ID)
		}
		f.RebuildCover()
		total += time.Since(start)
		if next < len(cps) && i+1 == cps[next] {
			stats.Checkpoints = append(stats.Checkpoints, workload.Checkpoint{OpIndex: i + 1, Result: f.Result()})
			next++
		}
	}
	if len(w.Ops) > 0 {
		stats.AvgUpdate = total / time.Duration(len(w.Ops))
	}
	return stats, nil
}

// AblationCone measures how many utilities the cone-tree utility index
// actually evaluates per insertion versus the total M the engine maintains
// (EXPERIMENTS.md §5.2). The gap is the pruning payoff of Section III-C's UI.
func AblationCone(o Options, names ...string) *Table {
	o = o.withDefaults()
	if len(names) == 0 {
		names = []string{"Indep", "AntiCor"}
	}
	t := &Table{
		Title:  "Ablation: cone-tree pruning on insertions",
		Header: []string{"dataset", "utilities(M)", "avg-visited", "avg-affected", "visited/M"},
	}
	for _, name := range names {
		ds := loadDataset(name, o)
		w := workload.Generate(ds, o.Seed)
		r := capR(defaultR(name), ds.N())
		eps := TuneEps(w.Initial, w.Dim, 1, r, o.M, o.Seed)
		f, err := core.New(w.Dim, w.Initial, core.Config{K: 1, R: r, Eps: eps, M: o.M, Seed: o.Seed})
		if err != nil {
			continue
		}
		visited, inserts := 0, 0
		for _, op := range w.Ops {
			if op.Insert {
				visited += f.Engine().VisitedOnInsert(op.Point)
				inserts++
				f.Insert(op.Point)
			} else {
				f.Delete(op.ID)
			}
		}
		eng := f.Engine()
		avgVisited := float64(visited) / float64(max(1, inserts))
		avgAffected := float64(eng.AffectedTotal) / float64(max(1, eng.InsertOps+eng.DeleteOps))
		t.AddRow(name,
			fmt.Sprint(o.M),
			fmt.Sprintf("%.1f", avgVisited),
			fmt.Sprintf("%.1f", avgAffected),
			fmt.Sprintf("%.3f", avgVisited/float64(o.M)))
		f.Close()
	}
	return t
}

// AblationTopK reports the requery rate of the top-k maintenance fast paths
// (EXPERIMENTS.md §5.3): the fraction of operations that needed a fresh
// tuple-index query instead of an incremental repair.
func AblationTopK(o Options, names ...string) *Table {
	o = o.withDefaults()
	if len(names) == 0 {
		names = []string{"Indep", "AntiCor"}
	}
	t := &Table{
		Title:  "Ablation: top-k maintenance fast paths",
		Header: []string{"dataset", "ops", "affected-total", "requeries", "requery-rate"},
	}
	for _, name := range names {
		ds := loadDataset(name, o)
		w := workload.Generate(ds, o.Seed)
		r := capR(defaultR(name), ds.N())
		eps := TuneEps(w.Initial, w.Dim, 1, r, o.M, o.Seed)
		f, err := core.New(w.Dim, w.Initial, core.Config{K: 1, R: r, Eps: eps, M: o.M, Seed: o.Seed})
		if err != nil {
			continue
		}
		for _, op := range w.Ops {
			if op.Insert {
				f.Insert(op.Point)
			} else {
				f.Delete(op.ID)
			}
		}
		eng := f.Engine()
		ops := eng.InsertOps + eng.DeleteOps
		rate := 0.0
		if eng.AffectedTotal > 0 {
			rate = float64(eng.Requeries) / float64(eng.AffectedTotal)
		}
		t.AddRow(name, fmt.Sprint(ops), fmt.Sprint(eng.AffectedTotal),
			fmt.Sprint(eng.Requeries), fmt.Sprintf("%.4f", rate))
		f.Close()
	}
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
