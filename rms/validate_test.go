package rms_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fdrms/rms"
)

// hostileValues are tuples a 2-attribute database must refuse, whatever
// path they take into rms.
var hostileValues = []struct {
	name   string
	values []float64
}{
	{"wrong dimension", []float64{0.5}},
	{"NaN", []float64{math.NaN(), 0.5}},
	{"+Inf", []float64{math.Inf(1), 0.5}},
	{"-Inf", []float64{0.5, math.Inf(-1)}},
	{"negative", []float64{-0.25, 0.5}},
}

func validateTestOptions() rms.Options {
	return rms.Options{K: 1, R: 4, Epsilon: 0.05, MaxUtilities: 32, Seed: 3}
}

// hostileBatch is a valid insertion followed by the hostile tuple: a batch
// that must be refused as a whole.
func hostileBatch(values []float64) []rms.Update {
	return []rms.Update{
		rms.Ins(rms.Point{ID: 500, Values: []float64{0.5, 0.5}}),
		rms.Ins(rms.Point{ID: 501, Values: values}),
	}
}

func wantInvalidTuple(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, rms.ErrInvalidTuple) {
		t.Fatalf("err = %v, want one wrapping rms.ErrInvalidTuple", err)
	}
}

// Every write path refuses a batch holding a hostile tuple before anything
// changes: Dynamic keeps its answer and database, Store publishes no
// generation, and DurableStore logs nothing.
func TestWritesRejectInvalidTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	initial := randomTuples(rng, 40, 2, 0)
	for _, tc := range hostileValues {
		t.Run("Dynamic/"+tc.name, func(t *testing.T) {
			d, err := rms.NewDynamic(2, initial, validateTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			before := d.Result()
			wantInvalidTuple(t, d.ApplyBatch(hostileBatch(tc.values)))
			wantInvalidTuple(t, d.Insert(rms.Point{ID: 501, Values: tc.values}))
			if d.Contains(500) || d.Contains(501) || d.Len() != len(initial) {
				t.Fatal("a rejected batch changed the database")
			}
			if !reflect.DeepEqual(before, d.Result()) {
				t.Fatal("a rejected batch changed the answer")
			}
		})
		t.Run("Store/"+tc.name, func(t *testing.T) {
			store, err := rms.NewStore(2, initial, validateTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			g := store.Current()
			wantInvalidTuple(t, store.ApplyBatch(hostileBatch(tc.values)))
			wantInvalidTuple(t, store.Insert(rms.Point{ID: 501, Values: tc.values}))
			if store.Current() != g {
				t.Fatalf("a rejected batch published generation %d", store.Current().ID())
			}
		})
		t.Run("DurableStore/"+tc.name, func(t *testing.T) {
			ds, err := rms.OpenDurable(t.TempDir(), 2, initial, validateTestOptions(), rms.DurableOptions{SyncEveryBatch: true})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			g := ds.Current()
			wantInvalidTuple(t, ds.ApplyBatch(hostileBatch(tc.values)))
			wantInvalidTuple(t, ds.Insert(rms.Point{ID: 501, Values: tc.values}))
			if ds.LastSeq() != 0 {
				t.Fatalf("a rejected batch was logged: LastSeq = %d", ds.LastSeq())
			}
			if ds.Current() != g {
				t.Fatalf("a rejected batch published generation %d", ds.Current().ID())
			}
		})
	}
}

// The initial database passes the same check, and must also list each id
// once: NewDynamic, NewStore and a fresh OpenDurable all refuse it, and the
// durable directory is left without state. Compute's input passes the
// per-tuple check too.
func TestInitialDatabaseRejectsInvalidTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type initialCase struct {
		name    string
		initial []rms.Point
	}
	var cases []initialCase
	for _, tc := range hostileValues {
		initial := randomTuples(rng, 10, 2, 0)
		initial[3].Values = tc.values
		cases = append(cases, initialCase{tc.name, initial})
	}
	dup := randomTuples(rng, 10, 2, 0)
	dup[7].ID = dup[2].ID
	cases = append(cases, initialCase{"duplicate id", dup})

	for _, tc := range cases {
		t.Run("Dynamic/"+tc.name, func(t *testing.T) {
			_, err := rms.NewDynamic(2, tc.initial, validateTestOptions())
			wantInvalidTuple(t, err)
		})
		t.Run("Store/"+tc.name, func(t *testing.T) {
			_, err := rms.NewStore(2, tc.initial, validateTestOptions())
			wantInvalidTuple(t, err)
		})
		t.Run("DurableStore/"+tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, err := rms.OpenDurable(dir, 2, tc.initial, validateTestOptions(), rms.DurableOptions{})
			wantInvalidTuple(t, err)
			if has, err := rms.HasDurableState(dir); err != nil || has {
				t.Fatalf("rejected initial database left state behind: %v %v", has, err)
			}
		})
	}
	// Compute screens its input with the same per-tuple check, whichever
	// algorithm runs; it keeps no state, so a repeated id is no concern of
	// its own.
	for _, tc := range cases[:len(hostileValues)] {
		t.Run("Compute/"+tc.name, func(t *testing.T) {
			for _, alg := range rms.Algorithms() {
				if _, err := rms.Compute(alg, tc.initial, 2, 1, 3, 1); !errors.Is(err, rms.ErrInvalidTuple) {
					t.Errorf("%s: err = %v, want one wrapping rms.ErrInvalidTuple", alg, err)
				}
			}
		})
	}
}

// The read-only entry points screen their tuples with the same check:
// MaxRegretRatio refuses a hostile tuple in the database or in the answer,
// and Skyline one in the database, instead of panicking or returning a
// number computed from it.
func TestEvaluationRejectsInvalidTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range hostileValues {
		t.Run(tc.name, func(t *testing.T) {
			valid := randomTuples(rng, 10, 2, 0)
			hostile := randomTuples(rng, 10, 2, 0)
			hostile[3].Values = tc.values
			_, err := rms.MaxRegretRatio(hostile, valid[:3], 2, 1, 100, 1)
			wantInvalidTuple(t, err)
			_, err = rms.MaxRegretRatio(valid, hostile[2:5], 2, 1, 100, 1)
			wantInvalidTuple(t, err)
			_, err = rms.Skyline(hostile, 2)
			wantInvalidTuple(t, err)
		})
	}
}
