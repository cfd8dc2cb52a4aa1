package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"msweb/internal/core"
	"msweb/internal/httpcluster"
	"msweb/internal/trace"
)

func writeTrace(t *testing.T, n int) string {
	t.Helper()
	tr, err := trace.Generate(trace.GenConfig{
		Profile: trace.KSU, Lambda: 60, Requests: n, MuH: 110, R: 1.0 / 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "load.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMsloadEndToEnd(t *testing.T) {
	cfg := httpcluster.DefaultConfig(1, func(id int) core.Policy {
		return core.NewMS(nil, int64(id)+1)
	})
	cfg.Nodes = 3
	cfg.TimeScale = 0.2
	cfg.LoadRefresh = 25 * time.Millisecond
	cfg.PolicyTick = 50 * time.Millisecond
	c, err := httpcluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	path := writeTrace(t, 60)
	var out bytes.Buffer
	err = run([]string{
		"-masters", c.MasterURLs()[0],
		"-trace", path,
		"-timescale", "0.2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "replayed 60 requests") {
		t.Fatalf("report missing replay line:\n%s", text)
	}
	if !strings.Contains(text, "stretch factor:") || !strings.Contains(text, "static") {
		t.Fatalf("report incomplete:\n%s", text)
	}
	if strings.Contains(text, "(60 failed)") {
		t.Fatalf("all requests failed:\n%s", text)
	}
}

func TestMsloadErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run([]string{"-masters", "http://x", "-trace", "/nope"}, &out); err == nil {
		t.Fatal("missing trace file accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}

	// A replay in which every request fails is an error, not a perfect
	// stretch factor.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	unused := "http://" + ln.Addr().String()
	ln.Close()
	out.Reset()
	err = run([]string{"-masters", unused, "-trace", writeTrace(t, 20), "-timescale", "0.01", "-timeout", "2s"}, &out)
	if err == nil || !strings.Contains(err.Error(), "20/20 requests failed") {
		t.Fatalf("all-failed replay: err %v, want 20/20 requests failed\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "stretch factor") {
		t.Fatalf("stretch factor printed with no successful request:\n%s", out.String())
	}
}
