// Package tablefmt renders aligned plain-text tables for the experiment
// reports (the repository's equivalents of the paper's Tables 1-3).
package tablefmt

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
	// RightAlign marks columns rendered right-aligned (numbers).
	rightAlign map[int]bool
}

// New returns a table with the given column headers.
func New(header ...string) *Table {
	return &Table{header: header, rightAlign: map[int]bool{}}
}

// AlignRight marks the given column indices as right-aligned.
func (t *Table) AlignRight(cols ...int) *Table {
	for _, c := range cols {
		t.rightAlign[c] = true
	}
	return t
}

// Row appends a row; values are formatted with %v, and float64 values with
// two decimals (the paper's precision for misprediction percentages).
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(cell)
			if t.rightAlign[i] {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			} else {
				b.WriteString(cell)
				if i < cols-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for i, w := range widths {
			if i > 0 {
				total += 2
			}
			total += w
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
