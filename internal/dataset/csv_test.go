package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Indep(50, 4, 3)
	var buf bytes.Buffer
	if err := SaveCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != orig.N() || got.Dim != orig.Dim {
		t.Fatalf("n=%d d=%d, want n=%d d=%d", got.N(), got.Dim, orig.N(), orig.Dim)
	}
	for i, p := range got.Points {
		if p.ID != orig.Points[i].ID {
			t.Fatalf("row %d id %d, want %d", i, p.ID, orig.Points[i].ID)
		}
		for j, x := range p.Coords {
			if x != orig.Points[i].Coords[j] {
				t.Fatalf("row %d coord %d: %v != %v", i, j, x, orig.Points[i].Coords[j])
			}
		}
	}
}

func TestLoadCSVWithoutHeader(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("0,0.5,0.2\n1,0.1,0.9\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.Dim != 2 {
		t.Fatalf("n=%d d=%d", ds.N(), ds.Dim)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"header only":    "id,attr1\n",
		"bad id":         "id,attr1\nxx,0.5\n",
		"bad value":      "0,zzz\n",
		"negative":       "0,-1.5\n",
		"NaN":            "0,0.5\n1,NaN\n",
		"Inf":            "0,0.5,0.5\n1,0.5,Inf\n",
		"ragged row":     "0,0.5,0.5\n1,0.5\n",
		"duplicate id":   "0,0.5\n0,0.7\n",
		"id only column": "0\n1\n",
	}
	for name, in := range cases {
		if _, err := LoadCSV(strings.NewReader(in), name); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A non-finite cell is named by row and column, like a negative one.
	_, err := LoadCSV(strings.NewReader("id,a,b\n0,0.5,0.5\n1,0.5,+Inf\n"), "inf")
	if err == nil || !strings.Contains(err.Error(), "row 3, column 3") {
		t.Fatalf("err = %v, want one naming row 3, column 3", err)
	}
}

func TestNormalize(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader("0,10,100\n1,20,300\n2,15,200\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	for _, p := range ds.Points {
		for _, x := range p.Coords {
			if x < 0 || x > 1 {
				t.Fatalf("normalized coordinate %v out of range", x)
			}
		}
	}
	if ds.Points[0].Coords[0] != 0 || ds.Points[1].Coords[0] != 1 {
		t.Fatal("min/max not mapped to 0/1")
	}
}
