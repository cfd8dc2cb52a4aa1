package experiments

import (
	"msweb/internal/trace"
)

// Table1Row pairs a generated trace's measured characteristics with the
// values the paper publishes in Table 1.
type Table1Row struct {
	Measured trace.Characteristics
	// Published Table 1 values.
	PaperName     string
	PaperYear     int
	PaperRequests string // the paper reports "24.5 M" style figures
	PaperPctCGI   float64
	PaperInterval float64
	PaperHTML     float64
	PaperCGI      float64
}

var paperTable1 = []struct {
	name     string
	year     int
	requests string
	pctCGI   float64
	interval float64
	htmlSize float64
	cgiSize  float64
}{
	{"DEC", 1996, "24.5M", 8.7, 0.09, 8821, 5735},
	{"UCB", 1996, "9.2M", 11.2, 0.139, 7519, 4591},
	{"KSU", 1998, "47364", 29.1, 18.486, 482, 8730},
	{"ADL", 1997, "73610", 44.3, 22.418, 2186, 2027},
}

// RunTable1 generates synthetic instances of the four trace profiles at
// their historical rates and reports their measured characteristics next
// to the published Table 1 numbers.
func RunTable1(n int, seed int64) ([]Table1Row, error) {
	if n <= 0 {
		n = 5000
	}
	measured, err := trace.Table1(n, seed)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(measured))
	for i, m := range measured {
		p := paperTable1[i]
		rows[i] = Table1Row{
			Measured:      m,
			PaperName:     p.name,
			PaperYear:     p.year,
			PaperRequests: p.requests,
			PaperPctCGI:   p.pctCGI,
			PaperInterval: p.interval,
			PaperHTML:     p.htmlSize,
			PaperCGI:      p.cgiSize,
		}
	}
	return rows, nil
}
