package trace

import (
	"math"
	"strings"
	"testing"
)

const clfSample = `192.168.1.1 - - [02/Jun/1999:04:05:06 -0700] "GET /index.html HTTP/1.0" 200 2326
192.168.1.2 - alice [02/Jun/1999:04:05:07 -0700] "GET /cgi-bin/search HTTP/1.0" 200 8730
192.168.1.3 - - [02/Jun/1999:04:05:08 -0700] "GET /catalog?q=maps&page=2 HTTP/1.1" 200 2027
192.168.1.4 - - [02/Jun/1999:04:05:09 -0700] "GET /images/logo.gif HTTP/1.0" 304 -
192.168.1.5 - - [02/Jun/1999:04:05:10 -0700] "POST /app/form.php HTTP/1.1" 200 512
`

func readCLF(t *testing.T, in string, opts CLFOptions) *CLFResult {
	t.Helper()
	if opts.MuH == 0 {
		opts.MuH = 1200
	}
	if opts.R == 0 {
		opts.R = 1.0 / 40
	}
	res, err := ReadCLF(strings.NewReader(in), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCLFBasicImport(t *testing.T) {
	res := readCLF(t, clfSample, CLFOptions{})
	if res.Lines != 5 || res.Malformed != 0 {
		t.Fatalf("lines=%d malformed=%d", res.Lines, res.Malformed)
	}
	tr := res.Trace
	if len(tr.Requests) != 5 {
		t.Fatalf("%d requests", len(tr.Requests))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arrivals rebased to zero, one second apart.
	for i, r := range tr.Requests {
		if r.Arrival != float64(i) {
			t.Fatalf("request %d arrival %v, want %d", i, r.Arrival, i)
		}
	}
	// A static's memory is its size in 8 KiB pages, rounded up, and held
	// to what the trace format's 32-bit column carries.
	if got := tr.Requests[0].MemPages; got != 1 {
		t.Fatalf("2326-byte static has %d pages, want 1", got)
	}
	huge := readCLF(t, `h - - [02/Jun/1999:04:05:06 -0700] "GET /dump.tar HTTP/1.0" 200 99999999999999999`+"\n", CLFOptions{})
	if got := huge.Trace.Requests[0].MemPages; got != math.MaxInt32 {
		t.Fatalf("huge static has %d pages, want %d", got, math.MaxInt32)
	}
}

func TestCLFClassification(t *testing.T) {
	res := readCLF(t, clfSample, CLFOptions{})
	wantDynamic := []bool{false, true, true, false, true}
	for i, r := range res.Trace.Requests {
		if (r.Class == Dynamic) != wantDynamic[i] {
			t.Fatalf("request %d class %v, want dynamic=%v", i, r.Class, wantDynamic[i])
		}
	}
	// Sizes carried over; "-" means zero.
	if res.Trace.Requests[0].Size != 2326 || res.Trace.Requests[3].Size != 0 {
		t.Fatalf("sizes: %d, %d", res.Trace.Requests[0].Size, res.Trace.Requests[3].Size)
	}
}

// A script id depends on the URL path alone: stable from import to
// import, and shared by invocations of one script with other parameters.
func TestCLFScriptAndParamStability(t *testing.T) {
	res1 := readCLF(t, clfSample, CLFOptions{})
	res2 := readCLF(t, clfSample, CLFOptions{})
	for i := range res1.Trace.Requests {
		if res1.Trace.Requests[i].Script != res2.Trace.Requests[i].Script {
			t.Fatal("script hashing unstable")
		}
	}
	other := readCLF(t, `h - - [02/Jun/1999:04:05:08 -0700] "GET /catalog?q=roads HTTP/1.1" 200 2027
`, CLFOptions{})
	if got, want := other.Trace.Requests[0].Script, res1.Trace.Requests[2].Script; got != want {
		t.Fatalf("/catalog with other parameters has script %d, want %d", got, want)
	}
}

func TestCLFSortsOutOfOrderRecords(t *testing.T) {
	in := `a - - [02/Jun/1999:04:05:08 -0700] "GET /b.html HTTP/1.0" 200 100
a - - [02/Jun/1999:04:05:06 -0700] "GET /a.html HTTP/1.0" 200 100
`
	res := readCLF(t, in, CLFOptions{})
	if res.Trace.Requests[0].Arrival != 0 || res.Trace.Requests[1].Arrival != 2 {
		t.Fatalf("arrivals: %v, %v", res.Trace.Requests[0].Arrival, res.Trace.Requests[1].Arrival)
	}
}

func TestCLFMalformedHandling(t *testing.T) {
	dirty := clfSample + "garbage line without brackets\n"
	// Strict mode fails.
	if _, err := ReadCLF(strings.NewReader(dirty), CLFOptions{MuH: 1200, R: 1.0 / 40}); err == nil {
		t.Fatal("strict import accepted garbage")
	}
	// Tolerant mode counts and continues.
	res := readCLF(t, dirty, CLFOptions{SkipErrors: true})
	if res.Malformed != 1 || len(res.Trace.Requests) != 5 {
		t.Fatalf("malformed=%d requests=%d", res.Malformed, len(res.Trace.Requests))
	}
}

// clfMalformed are lines a strict import must reject; they also seed
// FuzzReadCLF.
var clfMalformed = []string{
	`a - - [bad-time] "GET / HTTP/1.0" 200 1`,
	`a - - [02/Jun/1999:04:05:06 -0700] GET-no-quotes 200 1`,
	`a - - [02/Jun/1999:04:05:06 -0700] "GET / HTTP/1.0" xyz 1`,
	`a - - [02/Jun/1999:04:05:06 -0700] "GET / HTTP/1.0" 999 1`,
	`a - - [02/Jun/1999:04:05:06 -0700] "GET / HTTP/1.0" 200 -5`,
	`a - - [02/Jun/1999:04:05:06 -0700] "GETONLY" 200 1`,
	`a - - [02/Jun/1999:04:05:06 -0700] "GET / HTTP/1.0" 200`,
}

func TestCLFMalformedVariants(t *testing.T) {
	for i, line := range clfMalformed {
		if _, err := ReadCLF(strings.NewReader(line+"\n"), CLFOptions{MuH: 1200, R: 1.0 / 40}); err == nil {
			t.Fatalf("case %d accepted: %s", i, line)
		}
	}
}

func TestCLFDynamicMarkers(t *testing.T) {
	in := `a - - [02/Jun/1999:04:05:06 -0700] "GET /api/v1/users HTTP/1.0" 200 100
`
	plain := readCLF(t, in, CLFOptions{})
	if plain.Trace.Requests[0].Class != Static {
		t.Fatal("unmarked /api path classified dynamic")
	}
	marked := readCLF(t, in, CLFOptions{DynamicMarkers: []string{"/api/"}})
	if marked.Trace.Requests[0].Class != Dynamic {
		t.Fatal("marker did not classify /api as dynamic")
	}
}

func TestCLFDemandCalibration(t *testing.T) {
	// Build a large synthetic log and verify the demand means.
	var b strings.Builder
	for i := 0; i < 4000; i++ {
		sec := i % 50
		min := i / 50 % 60
		kind := "/x.html"
		if i%2 == 1 {
			kind = "/cgi-bin/run"
		}
		b.WriteString("h - - [02/Jun/1999:04:")
		b.WriteString(pad2(min))
		b.WriteString(":")
		b.WriteString(pad2(sec))
		b.WriteString(` -0700] "GET ` + kind + ` HTTP/1.0" 200 1000` + "\n")
	}
	res := readCLF(t, b.String(), CLFOptions{})
	c := Characterize(res.Trace)
	wantH, wantC := 1.0/1200, 40.0/1200
	if c.MeanDemandH < 0.7*wantH || c.MeanDemandH > 1.3*wantH {
		t.Fatalf("static demand mean %v, want ~%v", c.MeanDemandH, wantH)
	}
	if c.MeanDemandC < 0.7*wantC || c.MeanDemandC > 1.3*wantC {
		t.Fatalf("dynamic demand mean %v, want ~%v", c.MeanDemandC, wantC)
	}
}

func pad2(n int) string {
	if n < 10 {
		return "0" + string(rune('0'+n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestCLFOptionValidation(t *testing.T) {
	if _, err := ReadCLF(strings.NewReader(""), CLFOptions{MuH: 0, R: 0.1}); err == nil {
		t.Fatal("MuH=0 accepted")
	}
	if _, err := ReadCLF(strings.NewReader(""), CLFOptions{MuH: 100, R: 0}); err == nil {
		t.Fatal("R=0 accepted")
	}
}
