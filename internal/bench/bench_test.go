package bench

import (
	"strings"
	"testing"
	"time"

	"fdrms/internal/baseline"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n1"}}
	tb.AddRow("1", "2")
	s := tb.String()
	for _, want := range []string{"== T ==", "a", "bb", "1", "2", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFmtDur(t *testing.T) {
	if got := fmtDur(1500 * time.Microsecond); got != "1.50ms" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtDur(150 * time.Millisecond); got != "150ms" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtDur(15 * time.Microsecond); got != "0.0150ms" {
		t.Fatalf("fmtDur = %q", got)
	}
}

func TestTable1Quick(t *testing.T) {
	tb := Table1(QuickOptions())
	if len(tb.Rows) != len(DatasetNames) {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestFig4Quick(t *testing.T) {
	ts := Fig4(QuickOptions())
	if len(ts) != 2 {
		t.Fatalf("%d tables", len(ts))
	}
	if len(ts[0].Rows) != 7 || len(ts[1].Rows) != 10 {
		t.Fatalf("row counts: %d, %d", len(ts[0].Rows), len(ts[1].Rows))
	}
}

func TestFig5QuickSingleDataset(t *testing.T) {
	ts := Fig5(QuickOptions(), "Indep")
	if len(ts) != 1 {
		t.Fatalf("%d tables", len(ts))
	}
	if len(ts[0].Rows) < 3 {
		t.Fatalf("eps sweep too short: %d rows\n%s", len(ts[0].Rows), ts[0])
	}
}

func TestFig6QuickSingleDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("full algorithm sweep is slow")
	}
	ts := Fig6(QuickOptions(), "Indep")
	if len(ts) != 1 {
		t.Fatalf("%d tables", len(ts))
	}
	// Each r value yields one row per algorithm (FD-RMS + 8 baselines); the
	// r grid itself depends on the smoke-scale cap.
	if n := len(ts[0].Rows); n%9 != 0 || n < 18 {
		t.Fatalf("%d rows\n%s", n, ts[0])
	}
}

func TestFig7QuickSingleDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("full k sweep is slow")
	}
	ts := Fig7(QuickOptions(), "Indep")
	if len(ts) != 1 {
		t.Fatalf("%d tables", len(ts))
	}
	if len(ts[0].Rows) != 5*4 {
		t.Fatalf("%d rows\n%s", len(ts[0].Rows), ts[0])
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	o := QuickOptions()
	if tb := AblationCone(o, "Indep"); len(tb.Rows) != 1 {
		t.Fatalf("cone ablation rows: %d", len(tb.Rows))
	}
	if tb := AblationTopK(o, "Indep"); len(tb.Rows) != 1 {
		t.Fatalf("topk ablation rows: %d", len(tb.Rows))
	}
	if tb := AblationCover(o, "Indep"); len(tb.Rows) != 2 {
		t.Fatalf("cover ablation rows: %d", len(tb.Rows))
	}
}

func TestStaticFeasible(t *testing.T) {
	o := QuickOptions()
	ds := loadDataset("Indep", o)
	// Sphere easily fits a generous budget...
	if !staticFeasible(newSphereForTest(), ds.Points, ds.Dim, 1, 10, 10*time.Second) {
		t.Fatal("Sphere should be feasible at smoke scale")
	}
	// ...and nothing fits a sub-microsecond budget.
	if staticFeasible(newSphereForTest(), ds.Points, ds.Dim, 1, 10, time.Microsecond) {
		t.Fatal("nothing is feasible in a microsecond")
	}
}

func TestCapR(t *testing.T) {
	if capR(50, 100000) != 50 {
		t.Fatal("cap must not bind at paper scale")
	}
	if got := capR(50, 500); got != 20 {
		t.Fatalf("capR(50, 500) = %d, want 20", got)
	}
	if got := capR(50, 10); got != 2 {
		t.Fatalf("capR floor = %d, want 2", got)
	}
	rs := capRs([]int{10, 40, 70, 100}, 500)
	if len(rs) != 2 || rs[0] != 10 || rs[1] != 20 {
		t.Fatalf("capRs = %v", rs)
	}
}

func TestTuneEpsReturnsLadderValue(t *testing.T) {
	o := QuickOptions()
	ds := loadDataset("Indep", o)
	eps := TuneEps(ds.Points, ds.Dim, 1, 10, o.M, o.Seed)
	if eps <= 0 || eps > 0.2 {
		t.Fatalf("tuned eps = %v", eps)
	}
}

func newSphereForTest() baseline.Algorithm { return baseline.NewSphere(1) }
