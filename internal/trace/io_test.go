package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tr := genTestTrace(t, KSU, 500, 100)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		if n := len(strings.Fields(line)); n != 7 {
			t.Fatalf("record %d written with %d columns, want 7: %q", i, n, line)
		}
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q, want %q", got.Name, tr.Name)
	}
	if len(got.Requests) != len(tr.Requests) {
		t.Fatalf("%d records, want %d", len(got.Requests), len(tr.Requests))
	}
	for i := range tr.Requests {
		a, b := tr.Requests[i], got.Requests[i]
		if a.Class != b.Class || a.Size != b.Size || a.MemPages != b.MemPages || a.Script != b.Script {
			t.Fatalf("record %d: %+v != %+v", i, a, b)
		}
		if !approx(a.Arrival, b.Arrival, 1e-8) || !approx(a.Demand, b.Demand, 1e-8) {
			t.Fatalf("record %d times: %+v != %+v", i, a, b)
		}
		if !approx(a.CPUWeight, b.CPUWeight, 1e-3) {
			t.Fatalf("record %d weight: %v != %v", i, a.CPUWeight, b.CPUWeight)
		}
	}
}

func TestReadRejectsBadHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsMalformedRecords(t *testing.T) {
	cases := []string{
		"# msweb-trace v1 x\n1.0 s 100\n",                                    // too few fields
		"# msweb-trace v1 x\n1.0 z 100 0.1 0.5 1 0\n",                        // bad class
		"# msweb-trace v1 x\nabc s 100 0.1 0.5 1 0\n",                        // bad arrival
		"# msweb-trace v1 x\n1.0 s xx 0.1 0.5 1 0\n",                         // bad size
		"# msweb-trace v1 x\n1.0 s 100 yy 0.5 1 0\n",                         // bad demand
		"# msweb-trace v1 x\n1.0 s 100 0.1 zz 1 0\n",                         // bad weight
		"# msweb-trace v1 x\n1.0 s 100 0.1 0.5 qq 0\n",                       // bad mem
		"# msweb-trace v1 x\n1.0 s 100 0.1 0.5 1 rr\n",                       // bad script
		"# msweb-trace v1 x\n2.0 s 100 0.1 0.5 1 0\n1.0 s 100 0.1 0.5 1 0\n", // unsorted
		"# msweb-trace v1 x\n1.0 s 100 0.1 1.5 1 0\n",                        // weight out of range
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: malformed trace accepted", i)
		}
	}
}

func TestReadSkipsCommentsAndBlankLines(t *testing.T) {
	in := "# msweb-trace v1 demo\n\n# comment\n1.0 s 100 0.001 0.30 1 0\n2.0 d 500 0.040 0.90 8 2\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("%d records, want 2", len(tr.Requests))
	}
	if tr.Requests[1].Class != Dynamic || tr.Requests[1].Script != 2 {
		t.Fatalf("second record = %+v", tr.Requests[1])
	}
	if tr.Name != "demo" {
		t.Fatalf("name = %q", tr.Name)
	}
}

// Traces written while records carried a cache parameter end each line
// with an eighth integer column. Read still accepts such a file, reads
// the same records as from its seven-column form, and still refuses an
// eighth column that is not an integer.
func TestReadIgnoresLegacyParamColumn(t *testing.T) {
	legacy := "# msweb-trace v1 KSU\n" +
		"0.005178200 s 102 0.000679209 0.3000 1 0 0\n" +
		"0.005459258 d 15867 0.010497922 0.8944 555 1 14\n" +
		"0.008209350 d 9302 0.042720716 0.9591 270 3 0\n"
	got, err := Read(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Read(strings.NewReader("# msweb-trace v1 KSU\n" +
		"0.005178200 s 102 0.000679209 0.3000 1 0\n" +
		"0.005459258 d 15867 0.010497922 0.8944 555 1\n" +
		"0.008209350 d 9302 0.042720716 0.9591 270 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameRecords(got, want); !ok {
		t.Fatalf("record %d read from the eight-column form differs", i)
	}
	if r := got.Requests[1]; r.Class != Dynamic || r.Size != 15867 || r.MemPages != 555 || r.Script != 1 {
		t.Fatalf("second record = %+v", r)
	}
	if _, err := Read(strings.NewReader("# msweb-trace v1 x\n1.0 d 500 0.040 0.90 8 2 x7\n")); err == nil {
		t.Fatal("non-integer eighth column accepted")
	}
}
