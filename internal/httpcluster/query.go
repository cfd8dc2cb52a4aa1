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
// Semantics match url.ParseQuery followed by url.Values.Get on the keys
// we consume: a pair that ParseQuery rejects (one holding ';', or a
// malformed %-escape in its key or value) is skipped and leaves its key
// unseen, keys are unescaped like values, the first surviving
// occurrence of a duplicated key wins, a pair without '=' is a key with
// an empty value, and unknown keys are ignored.

// reqParams carries every query field the /req and /exec endpoints
// consume. demandOK/wOK report that the (required) numeric fields parsed;
// optional fields degrade to their zero values exactly as the previous
// url.Values code did.
type reqParams struct {
	demand, w float64
	demandOK  bool
	wOK       bool
	class     trace.Class
	script    int
	size      int64
	fork      bool
	idem      bool // idempotent (default); idem=0 marks side-effecting work
}

// The query keys parseReqQuery consumes, as bits of its seen mask.
const (
	keyDemand uint8 = 1 << iota
	keyW
	keyClass
	keyScript
	keySize
	keyFork
	keyIdem
)

// queryKey maps a decoded key to its bit, 0 for keys nobody reads.
func queryKey(key string) uint8 {
	switch key {
	case "demand":
		return keyDemand
	case "w":
		return keyW
	case "class":
		return keyClass
	case "script":
		return keyScript
	case "size":
		return keySize
	case "fork":
		return keyFork
	case "idem":
		return keyIdem
	}
	return 0
}

// unescape resolves %-escapes and '+' only when present, so plain
// keys and numeric values cost no allocation.
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
	var seen uint8
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		rawKey, rawVal, _ := strings.Cut(pair, "=")
		key, ok := unescape(rawKey)
		k := queryKey(key)
		if !ok || k == 0 || seen&k != 0 {
			continue
		}
		v, ok := unescape(rawVal)
		if !ok {
			continue
		}
		seen |= k
		switch k {
		case keyDemand:
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				p.demand, p.demandOK = f, true
			}
		case keyW:
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				p.w, p.wOK = f, true
			}
		case keyClass:
			if v == "d" {
				p.class = trace.Dynamic
			}
		case keyScript:
			// strconv.Atoi error ignored: script defaults to 0, as the
			// previous `script, _ := strconv.Atoi(...)` did.
			p.script, _ = strconv.Atoi(v)
		case keySize:
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				p.size = n
			}
		case keyFork:
			p.fork = v == "1"
		case keyIdem:
			// Only an explicit idem=0 marks a request non-idempotent;
			// everything else keeps the retryable default.
			p.idem = v != "0"
		}
	}
	return p
}
