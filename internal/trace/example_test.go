package trace_test

import (
	"fmt"
	"strings"

	"msweb/internal/trace"
)

// Generate a KSU-like workload and inspect its Table 1 statistics.
func ExampleGenerate() {
	tr, err := trace.Generate(trace.GenConfig{
		Profile:  trace.KSU,
		Lambda:   500,
		Requests: 20000,
		MuH:      1200,
		R:        1.0 / 40,
		Seed:     42,
	})
	if err != nil {
		panic(err)
	}
	c := trace.Characterize(tr)
	fmt.Printf("requests: %d\n", c.Requests)
	fmt.Printf("%%CGI close to profile: %v\n", c.PctCGI > 27 && c.PctCGI < 31)
	fmt.Printf("implied r close to 1/40: %v\n", c.R() > 0.02 && c.R() < 0.03)
	// Output:
	// requests: 20000
	// %CGI close to profile: true
	// implied r close to 1/40: true
}

// Import a real access log in Common Log Format.
func ExampleReadCLF() {
	log := `web1 - - [02/Jun/1999:04:05:06 -0700] "GET /index.html HTTP/1.0" 200 2326
web1 - - [02/Jun/1999:04:05:08 -0700] "GET /cgi-bin/search?q=maps HTTP/1.0" 200 8730
`
	res, err := trace.ReadCLF(strings.NewReader(log), trace.CLFOptions{
		MuH: 1200, R: 1.0 / 40,
	})
	if err != nil {
		panic(err)
	}
	for _, r := range res.Trace.Requests {
		fmt.Printf("t=%.0fs %s %d bytes\n", r.Arrival, r.Class, r.Size)
	}
	// Output:
	// t=0s static 2326 bytes
	// t=2s dynamic 8730 bytes
}

// The SPECweb96 fileset maps any requested size to its closest file.
func ExampleSPECWebFileSet_Closest() {
	fs := trace.NewSPECWebFileSet()
	for _, want := range []int64{500, 5000, 1 << 20} {
		f := fs.Closest(want)
		fmt.Printf("want %7d → class %d file of %d bytes\n", want, f.Class, f.Size)
	}
	// Output:
	// want     500 → class 0 file of 510 bytes
	// want    5000 → class 1 file of 5100 bytes
	// want 1048576 → class 3 file of 918000 bytes
}
