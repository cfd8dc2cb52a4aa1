// Package report renders experiment results. Every experiment in
// internal/experiments builds one Table; the same value prints as
// aligned text for the terminal (WriteText) and as CSV for plotting
// tools and spreadsheets (WriteCSV), so the two renderings cannot
// disagree. Cells are stored as strings: callers round floats before
// AddRow, and Cell prints the shortest representation of what it is
// given.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells. Notes are footnote lines: WriteText
// prints them after the rows, WriteCSV leaves them out.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Validate checks that every row matches the column count.
func (t *Table) Validate() error {
	if len(t.Columns) == 0 {
		return fmt.Errorf("report: table %q has no columns", t.Title)
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("report: table %q row %d has %d cells for %d columns",
				t.Title, i, len(row), len(t.Columns))
		}
	}
	return nil
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = Cell(c)
	}
	t.Rows = append(t.Rows, row)
}

// Cell stringifies one value with stable formatting: floats print the
// shortest representation that round-trips (no trailing zeros, no
// exponent), everything else uses fmt.
func Cell(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'f', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'f', -1, 32)
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}

// WriteCSV emits the table as RFC-4180 CSV with a leading header row.
func (t *Table) WriteCSV(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText emits a fixed-width text rendering: the title, the columns
// padded to their widest cell, then a blank line and the notes.
func (t *Table) WriteText(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	if len(t.Notes) > 0 {
		if _, err := fmt.Fprintf(w, "\n%s\n", strings.Join(t.Notes, "\n")); err != nil {
			return err
		}
	}
	return nil
}

// pad right-fills s to w characters (runes, so "±" or "ρ" count once).
func pad(s string, w int) string {
	return s + strings.Repeat(" ", max(0, w-utf8.RuneCountInString(s)))
}

// Slug converts a title into a filesystem-friendly name for CSV files.
func Slug(title string) string {
	var b strings.Builder
	lastDash := false
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && b.Len() > 0 {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}
