// Command rmscli runs k-regret minimizing set computation over CSV files —
// the end-user entry point of the library.
//
// Compute a representative set (CSV columns: id, attr1..attrD,
// larger = better):
//
//	rmscli -input hotels.csv -algo FD-RMS -k 1 -r 10
//	rmscli -input hotels.csv -algo Sphere -r 10 -mrr
//
// Generate a synthetic dataset to play with:
//
//	rmscli -generate anticor -n 10000 -d 6 > anticor.csv
//
// Print the skyline instead of a regret set:
//
//	rmscli -input hotels.csv -skyline
//
// Run a DURABLE store: with -wal-dir, FD-RMS state lives in a write-ahead
// log + checkpoint directory and survives restarts. A fresh directory is
// initialized from the input CSV; an existing one is recovered first and the
// CSV (if any) is ingested as logged updates on top:
//
//	rmscli -input hotels.csv -wal-dir ./state        # init or ingest
//	rmscli -wal-dir ./state -restore                 # recover, print result
//	rmscli checkpoint -wal-dir ./state               # snapshot + prune log
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fdrms/internal/dataset"
	"fdrms/rms"
)

func main() {
	// Verb-style invocation: "rmscli checkpoint -wal-dir DIR".
	args := os.Args[1:]
	verb := ""
	if len(args) > 0 && args[0] == "checkpoint" {
		verb = args[0]
		args = args[1:]
	}
	var (
		input    = flag.String("input", "", "input CSV file (id,attr1,...,attrD; larger = better)")
		algo     = flag.String("algo", "FD-RMS", "algorithm: FD-RMS | "+strings.Join(rms.Algorithms(), " | "))
		k        = flag.Int("k", 1, "regret rank k")
		r        = flag.Int("r", 10, "result size r")
		mrr      = flag.Bool("mrr", false, "also estimate the maximum k-regret ratio of the result")
		samples  = flag.Int("samples", 100000, "utility samples for -mrr")
		seed     = flag.Int64("seed", 1, "random seed")
		sky      = flag.Bool("skyline", false, "print the skyline instead of a regret set")
		generate = flag.String("generate", "", "emit a synthetic dataset instead: indep | anticor")
		n        = flag.Int("n", 10000, "tuples for -generate")
		d        = flag.Int("d", 6, "attributes for -generate")
		walDir   = flag.String("wal-dir", "", "durability directory: log updates to a WAL and recover state across runs (FD-RMS only)")
		restore  = flag.Bool("restore", false, "with -wal-dir: recover the persisted state and print its result (no -input needed)")
		sync     = flag.Bool("sync", true, "with -wal-dir: fsync the log after every batch")
	)
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}

	if verb == "checkpoint" || *restore {
		if *walDir == "" {
			fatalf("checkpoint / -restore require -wal-dir")
		}
		if ok, err := rms.HasDurableState(*walDir); err != nil {
			fatalf("%v", err)
		} else if !ok {
			fatalf("%s holds no durable store (initialize one with -input ... -wal-dir %s)", *walDir, *walDir)
		}
		ds, err := rms.OpenDurable(*walDir, 0, nil, rms.Options{}, rms.DurableOptions{SyncEveryBatch: *sync})
		if err != nil {
			fatalf("%v", err)
		}
		defer ds.Close()
		if verb == "checkpoint" {
			start := time.Now()
			seq, err := ds.Checkpoint()
			if err != nil {
				fatalf("checkpoint: %v", err)
			}
			fmt.Fprintf(os.Stderr, "rmscli: checkpointed %d tuples at seq %d in %v (%s)\n",
				ds.Current().Len(), seq, time.Since(start).Round(time.Millisecond), *walDir)
			return
		}
		fmt.Fprintf(os.Stderr, "rmscli: recovered %d tuples (last seq %d) from %s\n",
			ds.Current().Len(), ds.LastSeq(), *walDir)
		for _, p := range ds.Current().Result() {
			printPoint(p)
		}
		return
	}

	if *generate != "" {
		var ds *dataset.Dataset
		switch *generate {
		case "indep":
			ds = dataset.Indep(*n, *d, *seed)
		case "anticor":
			ds = dataset.AntiCor(*n, *d, *seed)
		default:
			fatalf("unknown generator %q (use indep or anticor)", *generate)
		}
		if err := dataset.SaveCSV(os.Stdout, ds); err != nil {
			fatalf("writing CSV: %v", err)
		}
		return
	}

	if *input == "" {
		fmt.Fprintln(os.Stderr, "rmscli: -input or -generate is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*input)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	ds, err := dataset.LoadCSV(f, *input)
	if err != nil {
		fatalf("%v", err)
	}
	// Ingesting into an EXISTING durable store must not re-normalize: the
	// per-file min/max scaling would put this file's tuples on a different
	// scale than the tuples already in the store (normalization bounds are
	// not part of the durable state). The caller provides consistently
	// scaled data across incremental loads; everywhere else the usual
	// normalize-to-unit-box applies.
	ingestExisting := false
	if *algo == "FD-RMS" && *walDir != "" && !*sky {
		if ingestExisting, err = rms.HasDurableState(*walDir); err != nil {
			fatalf("%v", err)
		}
	}
	if ingestExisting {
		fmt.Fprintf(os.Stderr, "rmscli: ingesting %s into existing store %s without re-normalizing (scale your data consistently across loads)\n", *input, *walDir)
	} else {
		ds.Normalize()
	}
	pts := make([]rms.Point, ds.N())
	for i, p := range ds.Points {
		pts[i] = rms.Point{ID: p.ID, Values: p.Coords}
	}

	if *sky {
		sky, err := rms.Skyline(pts, ds.Dim)
		if err != nil {
			fatalf("%v", err)
		}
		for _, p := range sky {
			printPoint(p)
		}
		return
	}

	start := time.Now()
	var result []rms.Point
	if *algo == "FD-RMS" && *walDir != "" {
		var store *rms.DurableStore
		if ingestExisting {
			// Recover first, then ingest the CSV as durable updates.
			store, err = rms.OpenDurable(*walDir, 0, nil, rms.Options{}, rms.DurableOptions{SyncEveryBatch: *sync})
			if err != nil {
				fatalf("%v", err)
			}
			// Chunked so arbitrarily large CSVs never exceed the WAL's
			// per-record size limit (one batch = one log record).
			const chunk = 4096
			for i := 0; i < len(pts); i += chunk {
				j := i + chunk
				if j > len(pts) {
					j = len(pts)
				}
				batch := make([]rms.Update, j-i)
				for k, p := range pts[i:j] {
					batch[k] = rms.Ins(p)
				}
				if err := store.ApplyBatch(batch); err != nil {
					fatalf("%v", err)
				}
			}
		} else {
			store, err = rms.OpenDurable(*walDir, ds.Dim, pts, rms.Options{K: *k, R: *r, Seed: *seed},
				rms.DurableOptions{SyncEveryBatch: *sync})
			if err != nil {
				fatalf("%v", err)
			}
		}
		defer store.Close()
		result = store.Current().Result()
	} else if *algo == "FD-RMS" {
		dyn, err := rms.NewDynamic(ds.Dim, pts, rms.Options{K: *k, R: *r, Seed: *seed})
		if err != nil {
			fatalf("%v", err)
		}
		result = dyn.Result()
	} else {
		result, err = rms.Compute(*algo, pts, ds.Dim, *k, *r, *seed)
		if err != nil {
			fatalf("%v", err)
		}
	}
	elapsed := time.Since(start)

	fmt.Fprintf(os.Stderr, "rmscli: %s picked %d of %d tuples in %v\n",
		*algo, len(result), len(pts), elapsed.Round(time.Millisecond))
	for _, p := range result {
		printPoint(p)
	}
	if *mrr {
		v, err := rms.MaxRegretRatio(pts, result, ds.Dim, *k, *samples, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rmscli: estimated maximum %d-regret ratio: %.4f (%d samples)\n", *k, v, *samples)
	}
}

func printPoint(p rms.Point) {
	cells := make([]string, 0, len(p.Values)+1)
	cells = append(cells, fmt.Sprint(p.ID))
	for _, x := range p.Values {
		cells = append(cells, fmt.Sprintf("%.4f", x))
	}
	fmt.Println(strings.Join(cells, ","))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rmscli: "+format+"\n", args...)
	os.Exit(1)
}
