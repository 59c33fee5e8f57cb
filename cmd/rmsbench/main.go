// Command rmsbench regenerates the tables and figures of the FD-RMS paper's
// evaluation (Section IV) on scaled datasets, printing aligned text tables.
//
// Usage:
//
//	rmsbench -exp table1                 # Table I: dataset statistics
//	rmsbench -exp fig4                   # skyline sizes of synthetic data
//	rmsbench -exp fig5 -datasets Indep   # effect of eps on FD-RMS
//	rmsbench -exp fig6                   # effect of result size r (all algorithms)
//	rmsbench -exp fig7                   # effect of k
//	rmsbench -exp fig8                   # scalability in d and n
//	rmsbench -exp ablation-cover         # stable cover vs per-op re-greedy
//	rmsbench -exp ablation-cone          # cone-tree pruning effectiveness
//	rmsbench -exp ablation-topk          # top-k fast-path requery rate
//	rmsbench -exp replicate              # WAL-shipping follower: lag, faults, convergence
//	rmsbench -exp all                    # everything above
//
// Flags -scale, -samples, -m, -recomputes, -budget and -seed control the
// reproduction scale; see EXPERIMENTS.md for the settings used to produce
// the recorded results. The benchmark/ module measures the serving layers
// end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"fdrms/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1 | fig4 | fig5 | fig6 | fig7 | fig8 | ablation-cover | ablation-cone | ablation-topk | replicate | all")
		scale      = flag.Float64("scale", 0.05, "fraction of the paper's dataset sizes (1.0 = full scale)")
		samples    = flag.Int("samples", 20000, "mrr test-set size (paper: 500000)")
		m          = flag.Int("m", 2048, "FD-RMS utility sample upper bound M")
		recomputes = flag.Int("recomputes", 10, "timed recomputations per static run (0 = every skyline change)")
		budget     = flag.Duration("budget", 20*time.Second, "per-recompute budget before a static algorithm is skipped")
		seed       = flag.Int64("seed", 1, "random seed")
		datasets   = flag.String("datasets", "", "comma-separated dataset subset of "+strings.Join(bench.DatasetNames, ",")+" (default: all six)")
	)
	flag.Parse()

	// usageErr reports a bad flag value the way the flag package reports an
	// unknown flag: message, usage text, exit status 2.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rmsbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}

	opt := bench.Options{
		Scale:         *scale,
		MRRSamples:    *samples,
		M:             *m,
		MaxRecomputes: *recomputes,
		StaticBudget:  *budget,
		Seed:          *seed,
	}
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
		for _, name := range names {
			if !slices.Contains(bench.DatasetNames, name) {
				usageErr("unknown dataset %q (want one of %s)", name, strings.Join(bench.DatasetNames, ", "))
			}
		}
	}

	// emit prints tables immediately, so long sweeps show progress.
	emit := func(ts ...*bench.Table) {
		for _, t := range ts {
			t.Fprint(os.Stdout)
		}
	}

	// perDataset streams one table per dataset.
	perDataset := func(f func(bench.Options, ...string) []*bench.Table) {
		list := names
		if len(list) == 0 {
			list = bench.DatasetNames
		}
		for _, name := range list {
			emit(f(opt, name)...)
		}
	}

	run := func(e string) {
		start := time.Now()
		switch e {
		case "table1":
			emit(bench.Table1(opt))
		case "fig4":
			emit(bench.Fig4(opt)...)
		case "fig5":
			perDataset(bench.Fig5)
		case "fig6":
			perDataset(bench.Fig6)
		case "fig7":
			perDataset(bench.Fig7)
		case "fig8":
			emit(bench.Fig8(opt)...)
		case "ablation-cover":
			emit(bench.AblationCover(opt, names...))
		case "ablation-cone":
			emit(bench.AblationCone(opt, names...))
		case "ablation-topk":
			emit(bench.AblationTopK(opt, names...))
		case "replicate":
			emit(bench.Replicate(opt))
		default:
			usageErr("unknown experiment %q", e)
		}
		fmt.Fprintf(os.Stderr, "[%s finished in %v]\n", e, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8",
			"ablation-cover", "ablation-cone", "ablation-topk", "replicate"} {
			run(e)
		}
		return
	}
	run(*exp)
}
