package trace

// Import of real Web server access logs in Common Log Format (CLF) and
// its combined variant — the adoption path for users who want to replay
// their own site's history instead of the synthetic profiles. This is
// exactly how the paper treated its logs: the access log supplies
// arrival times, URL classes and response sizes; service demands are
// synthesized from the μ_h / r calibration because logs do not record
// server-side costs.
//
//	host ident user [02/Jun/1999:04:05:06 -0700] "GET /x.html HTTP/1.0" 200 2326
//
// Classification: a request is dynamic if its URL path contains
// "/cgi-bin/", ends in a script suffix (.cgi, .pl, .php, .asp) or
// carries a query string; everything else is a static fetch. The script
// id of a dynamic request is a stable hash of its path, so invocations
// of one script with different parameters share it.

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"msweb/internal/rng"
)

// CLFOptions control log import.
type CLFOptions struct {
	// MuH and R calibrate synthesized service demands, exactly as in
	// GenConfig (mean static demand 1/MuH, dynamic 1/(R·MuH)).
	MuH float64
	R   float64
	// Seed drives the demand draws.
	Seed int64
	// Demand selects the demand distribution (exponential by default).
	Demand DemandModel
	// SkipErrors keeps going past malformed lines (counting them)
	// instead of failing; real logs are dirty.
	SkipErrors bool
	// DynamicMarkers optionally extends the dynamic-URL classification
	// (substrings matched against the path).
	DynamicMarkers []string
}

// CLFResult reports import statistics alongside the trace.
type CLFResult struct {
	Trace     *Trace
	Lines     int
	Malformed int
}

const clfTimeLayout = "02/Jan/2006:15:04:05 -0700"

// ReadCLF parses an access log into a replayable trace. Records are
// sorted by timestamp (logs are written in completion order, which can
// be slightly out of arrival order) and rebased to start at zero.
func ReadCLF(r io.Reader, opts CLFOptions) (*CLFResult, error) {
	if opts.MuH <= 0 {
		return nil, fmt.Errorf("trace: CLF import needs a positive MuH calibration")
	}
	if opts.R <= 0 || opts.R > 1 {
		return nil, fmt.Errorf("trace: CLF import needs r in (0, 1]")
	}
	gen := GenConfig{MuH: opts.MuH, R: opts.R, Demand: opts.Demand}
	demandS := newDemandDrawer(gen, opts.Seed)

	res := &CLFResult{Trace: &Trace{Name: "clf"}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	type rec struct {
		at  time.Time
		req Request
	}
	var recs []rec
	for sc.Scan() {
		res.Lines++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at, req, err := parseCLFLine(line, opts)
		if err != nil {
			if opts.SkipErrors {
				res.Malformed++
				continue
			}
			return nil, fmt.Errorf("trace: CLF line %d: %w", res.Lines, err)
		}
		recs = append(recs, rec{at: at, req: req})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].at.Before(recs[j].at) })

	var base time.Time
	for i, rc := range recs {
		if i == 0 {
			base = rc.at
		}
		req := rc.req
		req.Arrival = rc.at.Sub(base).Seconds()
		// Synthesize the unobservable service demand from calibration.
		if req.Class == Dynamic {
			req.Demand = demandS(1 / (opts.R * opts.MuH))
			req.CPUWeight = 0.5 // unknown mix: the paper's default
			req.MemPages = 128
		} else {
			req.Demand = demandS(1 / opts.MuH)
			req.CPUWeight = 0.3
			req.MemPages = int32(min(req.Size/8192+1, math.MaxInt32))
		}
		res.Trace.Requests = append(res.Trace.Requests, req)
	}
	if err := res.Trace.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// newDemandDrawer builds a demand sampler matching Generate's models.
func newDemandDrawer(cfg GenConfig, seed int64) func(mean float64) float64 {
	s := rng.New(seed)
	return func(mean float64) float64 {
		switch cfg.Demand {
		case ParetoDemand:
			lo := mean / 2.866
			return s.BoundedPareto(lo, 500*lo, 1.5)
		case DeterministicDemand:
			return mean
		default:
			floor := 0.12 * mean
			return floor + s.Exp(mean-floor)
		}
	}
}

// parseCLFLine extracts timestamp, request line, status and size.
func parseCLFLine(line string, opts CLFOptions) (time.Time, Request, error) {
	var req Request

	lb := strings.IndexByte(line, '[')
	rb := strings.IndexByte(line, ']')
	if lb < 0 || rb < lb {
		return time.Time{}, req, fmt.Errorf("no timestamp")
	}
	at, err := time.Parse(clfTimeLayout, line[lb+1:rb])
	if err != nil {
		return time.Time{}, req, fmt.Errorf("timestamp: %v", err)
	}

	q1 := strings.IndexByte(line[rb:], '"')
	if q1 < 0 {
		return time.Time{}, req, fmt.Errorf("no request line")
	}
	q1 += rb
	q2 := strings.IndexByte(line[q1+1:], '"')
	if q2 < 0 {
		return time.Time{}, req, fmt.Errorf("unterminated request line")
	}
	reqLine := line[q1+1 : q1+1+q2]
	rest := strings.Fields(strings.TrimSpace(line[q1+q2+2:]))
	if len(rest) < 2 {
		return time.Time{}, req, fmt.Errorf("no status/size")
	}
	status, err := strconv.Atoi(rest[0])
	if err != nil {
		return time.Time{}, req, fmt.Errorf("status: %v", err)
	}
	if status < 100 || status > 599 {
		return time.Time{}, req, fmt.Errorf("implausible status %d", status)
	}
	size := int64(0)
	if rest[1] != "-" {
		size, err = strconv.ParseInt(rest[1], 10, 64)
		if err != nil || size < 0 {
			return time.Time{}, req, fmt.Errorf("size: %q", rest[1])
		}
	}

	parts := strings.Fields(reqLine)
	if len(parts) < 2 {
		return time.Time{}, req, fmt.Errorf("bad request line %q", reqLine)
	}
	url := parts[1]
	path, query := url, ""
	if i := strings.IndexByte(url, '?'); i >= 0 {
		path, query = url[:i], url[i+1:]
	}

	req.Size = size
	if isDynamicURL(path, query, opts.DynamicMarkers) {
		req.Class = Dynamic
		req.Script = 1 + int(hash32(path)%997)
	} else {
		req.Class = Static
	}
	return at, req, nil
}

// isDynamicURL applies the classification heuristics.
func isDynamicURL(path, query string, extra []string) bool {
	if query != "" {
		return true
	}
	lower := strings.ToLower(path)
	if strings.Contains(lower, "/cgi-bin/") {
		return true
	}
	for _, suffix := range []string{".cgi", ".pl", ".php", ".asp", ".jsp"} {
		if strings.HasSuffix(lower, suffix) {
			return true
		}
	}
	for _, marker := range extra {
		if marker != "" && strings.Contains(lower, strings.ToLower(marker)) {
			return true
		}
	}
	return false
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s)) //nolint:errcheck
	return h.Sum32()
}
