package httpcluster

import (
	"net/url"
	"strconv"
	"strings"

	"msweb/internal/trace"
)

// Hand-rolled query parsing for the serving hot path. url.Values builds
// a map[string][]string per call — several allocations per request for
// queries whose keys are fixed and whose values are numbers. reqParams
// scans RawQuery once, fills a value struct, and allocates only when a
// value actually contains %-escapes or '+' (never on the paths the
// cluster's own clients generate).
//
// Semantics match url.Values.Get on the keys we consume: the first
// occurrence of a duplicated key wins, a pair without '=' is a key with
// an empty value, and unknown keys are ignored. Malformed escapes in a
// consumed value make the value unparseable (a 400 for required fields)
// rather than being silently passed through.

// reqParams carries every query field the /req and /exec endpoints
// consume. demandOK/wOK report that the (required) numeric fields parsed;
// optional fields degrade to their zero values exactly as the previous
// url.Values code did.
type reqParams struct {
	demand, w  float64
	demandOK   bool
	wOK        bool
	class      trace.Class
	script     int
	size       int64
	fork       bool
	idem       bool // idempotent (default); idem=0 marks side-effecting work
	seenDemand bool
	seenW      bool
	seenClass  bool
	seenScript bool
	seenSize   bool
	seenFork   bool
	seenIdem   bool
}

// unescape resolves %-escapes and '+' only when present, so plain
// numeric values cost no allocation.
func unescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// parseReqQuery scans a RawQuery once. It never fails outright — field
// validity is reported per field so each handler can decide which fields
// it requires.
func parseReqQuery(raw string) reqParams {
	p := reqParams{idem: true}
	for len(raw) > 0 {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if pair == "" {
			continue
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		switch key {
		case "demand":
			if p.seenDemand {
				continue
			}
			p.seenDemand = true
			if v, ok := unescape(val); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					p.demand, p.demandOK = f, true
				}
			}
		case "w":
			if p.seenW {
				continue
			}
			p.seenW = true
			if v, ok := unescape(val); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					p.w, p.wOK = f, true
				}
			}
		case "class":
			if p.seenClass {
				continue
			}
			p.seenClass = true
			if v, ok := unescape(val); ok && v == "d" {
				p.class = trace.Dynamic
			}
		case "script":
			if p.seenScript {
				continue
			}
			p.seenScript = true
			if v, ok := unescape(val); ok {
				// strconv.Atoi error ignored: script defaults to 0, as
				// the previous `script, _ := strconv.Atoi(...)` did.
				p.script, _ = strconv.Atoi(v)
			}
		case "size":
			if p.seenSize {
				continue
			}
			p.seenSize = true
			if v, ok := unescape(val); ok {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					p.size = n
				}
			}
		case "fork":
			if p.seenFork {
				continue
			}
			p.seenFork = true
			if v, ok := unescape(val); ok && v == "1" {
				p.fork = true
			}
		case "idem":
			if p.seenIdem {
				continue
			}
			p.seenIdem = true
			// Only an explicit idem=0 marks a request non-idempotent;
			// everything else keeps the retryable default.
			if v, ok := unescape(val); ok && v == "0" {
				p.idem = false
			}
		}
	}
	return p
}
