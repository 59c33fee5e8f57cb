// Package bench regenerates every table and figure of the paper's
// evaluation (Section IV): Table I (dataset statistics), Fig. 4 (skyline
// sizes of the synthetic families), Fig. 5 (effect of ε on FD-RMS), Fig. 6
// (effect of the result size r across all algorithms), Fig. 7 (effect of
// k), and Fig. 8 (scalability in d and n) — plus the ablation studies
// recorded in EXPERIMENTS.md.
//
// Datasets are scaled down from the paper's sizes by Options.Scale (default
// 1/20) so the whole suite runs on a laptop; the comparisons are relative
// (who wins, by what factor, where the crossovers are), which scaling
// preserves. Combinations whose static baseline would exceed the
// per-recompute cost budget are skipped and reported as "-", mirroring the
// paper's missing entries for algorithms that could not finish.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// fmtDur renders a duration as the paper's millisecond axis.
func fmtDur(d time.Duration) string {
	ms := float64(d.Nanoseconds()) / 1e6
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0fms", ms)
	case ms >= 1:
		return fmt.Sprintf("%.2fms", ms)
	default:
		return fmt.Sprintf("%.4fms", ms)
	}
}

func fmtMRR(v float64) string { return fmt.Sprintf("%.4f", v) }
