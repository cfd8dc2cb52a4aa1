package httpcluster

import (
	"bufio"
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// edgeSeedHeads are request heads the edge meets: what each in-repo
// client sends, and the shapes it must leave to net/http.
var edgeSeedHeads = []string{
	// benchmark/live.go's raw client.
	"GET /req?class=s&demand=0.00909091&w=0.3&script=0&size=1024 HTTP/1.1\r\nHost: 127.0.0.1:40001\r\n\r\n",
	// A net/http client (cmd/msload, internal/replay).
	"GET /req?class=d&demand=0.25&w=0.9&script=3 HTTP/1.1\r\nHost: 127.0.0.1:40001\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
	"GET /req?class=d&demand=1&w=0.5&idem=0 HTTP/1.1\r\nHost: localhost\r\nUser-Agent: Go-http-client/1.1\r\nX-Msweb-Timeout-Ms: 50\r\nAccept-Encoding: gzip\r\n\r\n",
	"GET /req?demand=1&w=0.5 HTTP/1.1\r\nHost: [::1]:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
	"GET /req?demand=1&w=0.5 HTTP/1.1\r\nhost: a\r\nCONNECTION: Close\r\n\r\n",
	"GET /req?demand=1&w=0.5 HTTP/1.1\r\nHost: a\r\nConnection: keep-alive\r\n\r\n",
	"GET /req HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /req? HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /req?demand=%31&w=0%2e5&class=%64&a#b HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nX-Msweb-Timeout-Ms:\r\nX-Msweb-Timeout-Ms: 70\r\n\r\n",
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nx-msweb-timeout-ms: \t 70 \t\r\n\r\n",
	// Two pipelined heads.
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\n\r\nGET /metrics HTTP/1.1\r\nHost: a\r\n\r\n",
	// The frame upgrade, as frameDialer.acquire and DialFrame send it.
	"GET /frame HTTP/1.1\r\nHost: 127.0.0.1:40001\r\nConnection: Upgrade\r\nUpgrade: msweb-frame/1\r\n\r\n",
	"GET /frame HTTP/1.1\r\nHost: a\r\nUpgrade: websocket\r\n\r\n",
	"GET /frame HTTP/1.1\r\nHost: a\r\n\r\n",
	// Shapes net/http must decide.
	"GET /req?demand=1&w=1 HTTP/1.1\nHost: a\n\n",                                       // bare LF
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nX-Fold: a\r\n b\r\n\r\n",              // obs-fold
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n",            // framing header
	"GET /req HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabc", // duplicate Content-Length
	"GET /req HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	"GET /req HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\n\r\n",
	"GET http://a/req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\n\r\n", // absolute-form
	"GET /req?demand=1&w=1 HTTP/1.0\r\n\r\n",
	"GET /req?demand=1&w=1 HTTP/1.1\r\n\r\n", // no Host
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nConnection: close, TE\r\n\r\n",
	"GET /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n",
	"GET /req?demand=1 &w=1 HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /req?demand=\x001 HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /req?demand=1 HTTP/1.1\r\nHost: a\r\nX-Bin: \xff\x01\r\n\r\n",
	"GET /req?demand=1 HTTP/1.1\r\nHost: a\r\nNo colon here\r\n\r\n",
	"GET /req?demand=1 HTTP/1.1\r\nHost: a\r\n: empty name\r\n\r\n",
	"GET /req?demand=1 HTTP/1.1\r\nHost: a\r\nX Y: z\r\n\r\n",
	"GET /req/ HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /request HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n",
	"POST /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nhi",
	"get /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET  /req?demand=1&w=1 HTTP/1.1\r\nHost: a\r\n\r\n",
	"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
	"\r\nGET /req HTTP/1.1\r\nHost: a\r\n\r\n",
	"",
}

// FuzzEdgeHead holds the edge's head parser to net/http's, on the same
// bytes: a head the edge keeps must be one http.ReadRequest parses to
// the same method, path, query, timeout header, keep-alive decision and
// "no body" — so a head net/http rejects is never kept — and a head the
// edge keeps must not be decided before its last byte (cut stands in for
// a head split across reads at any byte).
func FuzzEdgeHead(f *testing.F) {
	// Demands past maxDemand: the edge keeps the head, serveReq refuses it.
	huge := []string{
		"GET /req?class=d&demand=1e10&w=0.5 HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /req?class=s&demand=1e300&w=0.5 HTTP/1.1\r\nHost: a\r\n\r\n",
	}
	for _, s := range append(huge, edgeSeedHeads...) {
		f.Add([]byte(s), uint16(len(s)/2))
	}
	f.Fuzz(func(t *testing.T, b []byte, cut uint16) {
		h := parseEdgeHead(b)
		if h.route != edgeReq && h.route != edgeFrame {
			return
		}
		if h.n <= 0 || h.n > len(b) {
			t.Fatalf("head length %d of %d bytes", h.n, len(b))
		}
		if got := parseEdgeHead(b[:int(cut)%h.n]); got.route != edgeIncomplete {
			t.Fatalf("decided %d on the first %d of %d head bytes", got.route, int(cut)%h.n, h.n)
		}
		if again := parseEdgeHead(b[:h.n]); again.route != h.route || again.n != h.n {
			t.Fatalf("verdict depends on the bytes after the head: %+v vs %+v", again, h)
		}

		br := bufio.NewReader(bytes.NewReader(b))
		req, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("edge keeps a head net/http rejects (%v): %q", err, b[:h.n])
		}
		if consumed := len(b) - br.Buffered(); consumed < h.n {
			// ReadRequest reads ahead, so it can only be checked from below.
			t.Fatalf("net/http read %d bytes, edge says the head is %d", consumed, h.n)
		}
		wantPath := "/req"
		if h.route == edgeFrame {
			wantPath = "/frame"
		}
		if req.Method != http.MethodGet || req.URL.Path != wantPath || req.URL.Host != "" ||
			!req.ProtoAtLeast(1, 1) || req.ProtoMajor != 1 {
			t.Fatalf("net/http reads %s %q %s", req.Method, req.URL, req.Proto)
		}
		if req.ContentLength != 0 || len(req.TransferEncoding) != 0 || req.Body != http.NoBody {
			t.Fatalf("net/http sees a body: length %d, encoding %v", req.ContentLength, req.TransferEncoding)
		}
		if req.Host == "" {
			t.Fatal("edge keeps a head without a Host")
		}
		if h.route == edgeFrame {
			if !strings.EqualFold(req.Header.Get("Upgrade"), frameProtocol) {
				t.Fatalf("edge upgrades on Upgrade: %q", req.Header.Get("Upgrade"))
			}
			return
		}
		if req.URL.RawQuery != string(h.query) || req.URL.ForceQuery && len(h.query) != 0 {
			t.Fatalf("query: net/http %q, edge %q", req.URL.RawQuery, h.query)
		}
		if got := req.Header.Get(TimeoutHeader); got != string(h.timeout) {
			t.Fatalf("%s: net/http %q, edge %q", TimeoutHeader, got, h.timeout)
		}
		if req.Close != h.close {
			t.Fatalf("close: net/http %v, edge %v", req.Close, h.close)
		}
		for _, name := range []string{"Expect", "Trailer", "Upgrade"} {
			if req.Header.Get(name) != "" {
				t.Fatalf("edge keeps a head with %s", name)
			}
		}
	})
}

// TestEdgeHeadVerdicts pins which seed heads stay on the edge.
func TestEdgeHeadVerdicts(t *testing.T) {
	for i, s := range edgeSeedHeads {
		h := parseEdgeHead([]byte(s))
		switch {
		case i < 12:
			if h.route != edgeReq {
				t.Errorf("seed %d: route %d, want native /req: %q", i, h.route, s)
			}
		case i == 12:
			if h.route != edgeFrame || h.n != len(s) {
				t.Errorf("seed %d: route %d n %d, want the frame upgrade", i, h.route, h.n)
			}
		case s == "":
			if h.route != edgeIncomplete {
				t.Errorf("empty input: route %d, want incomplete", h.route)
			}
		default:
			if h.route != edgeHandoff {
				t.Errorf("seed %d: route %d, want a hand-off: %q", i, h.route, s)
			}
		}
	}
	if h := parseEdgeHead([]byte(edgeSeedHeads[4])); !h.close {
		t.Error("Connection: Close not seen")
	}
	if h := parseEdgeHead([]byte(edgeSeedHeads[9])); string(h.timeout) != "" {
		t.Errorf("first (empty) timeout value must win, got %q", h.timeout)
	}
	if h := parseEdgeHead([]byte(edgeSeedHeads[10])); string(h.timeout) != "70" {
		t.Errorf("timeout value %q, want 70 with its blanks trimmed", h.timeout)
	}
	if h := parseEdgeHead([]byte(edgeSeedHeads[11])); h.n != len(edgeSeedHeads[11])-len("GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n") {
		t.Errorf("pipelined head length %d", h.n)
	}
}
