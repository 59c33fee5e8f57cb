package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"fdrms/internal/geom"
)

// SaveCSV writes the dataset as CSV with an "id,attr1,...,attrD" header.
func SaveCSV(w io.Writer, ds *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, ds.Dim+1)
	header[0] = "id"
	for i := 1; i <= ds.Dim; i++ {
		header[i] = fmt.Sprintf("attr%d", i)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, ds.Dim+1)
	for _, p := range ds.Points {
		row[0] = strconv.Itoa(p.ID)
		for i, x := range p.Coords {
			row[i+1] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSV reads a dataset from CSV. The first column is the integer tuple
// id, the remaining columns are numeric attributes (larger = better). A
// first row whose second cell does not parse as a number is treated as a
// header and skipped. All records must have the same number of columns.
func LoadCSV(r io.Reader, name string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	start := 0
	if len(records[0]) >= 2 {
		if _, err := strconv.ParseFloat(records[0][1], 64); err != nil {
			start = 1 // header row
		}
	}
	if start >= len(records) {
		return nil, fmt.Errorf("dataset: CSV has a header but no data rows")
	}
	dim := len(records[start]) - 1
	if dim < 1 {
		return nil, fmt.Errorf("dataset: rows need an id plus at least one attribute, got %d columns", dim+1)
	}
	ds := &Dataset{Name: name, Dim: dim}
	seen := make(map[int]bool, len(records)-start)
	for lineNo, rec := range records[start:] {
		if len(rec) != dim+1 {
			return nil, fmt.Errorf("dataset: row %d has %d columns, want %d", lineNo+start+1, len(rec), dim+1)
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: bad id %q: %w", lineNo+start+1, rec[0], err)
		}
		if seen[id] {
			return nil, fmt.Errorf("dataset: duplicate id %d at row %d", id, lineNo+start+1)
		}
		seen[id] = true
		v := make(geom.Vector, dim)
		for i := 0; i < dim; i++ {
			x, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d, column %d: %w", lineNo+start+1, i+2, err)
			}
			if x < 0 {
				return nil, fmt.Errorf("dataset: row %d, column %d: negative attribute %v (larger-is-better scores must be nonnegative)", lineNo+start+1, i+2, x)
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("dataset: row %d, column %d: non-finite attribute %v", lineNo+start+1, i+2, x)
			}
			v[i] = x
		}
		ds.Points = append(ds.Points, geom.Point{ID: id, Coords: v})
	}
	return ds, nil
}

// Normalize rescales every attribute to [0, 1] in place (min-max), the
// preprocessing Section II assumes. Regret ratios are scale-invariant, so
// answers do not change.
func (d *Dataset) Normalize() *Dataset {
	geom.ScaleToUnitBox(d.Points)
	return d
}
