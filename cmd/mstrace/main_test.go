package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msweb/internal/trace"
)

func TestGenerateAndInspectRoundTrip(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-profile", "ADL", "-lambda", "50", "-n", "500", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("generated trace unreadable: %v", err)
	}
	if len(tr.Requests) != 500 || tr.Name != "ADL" {
		t.Fatalf("trace: %d requests, name %q", len(tr.Requests), tr.Name)
	}

	// Write to a file and inspect it.
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := run([]string{"-inspect", path}, &rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"name:           ADL", "requests:       500", "arrival ratio"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-profile", "NOPE"},
		{"-demand", "weird"},
		{"-arrival", "weird"},
		{"-lambda", "0"},
		{"-inspect", "/nonexistent/file"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// A non-finite rate or ratio used to pass generation and write a trace of
// NaN arrivals or demands that -inspect then refused to read. It is an
// error now, and nothing reaches stdout.
func TestRunRejectsNonFiniteFlags(t *testing.T) {
	cases := [][]string{
		{"-lambda", "NaN"},
		{"-lambda", "Inf"},
		{"-r", "NaN"},
		{"-muh", "NaN"},
		{"-muh", "+Inf"},
		{"-arrival", "mmpp", "-lambda", "-Inf"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		err := run(append(args, "-n", "3"), &out)
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("args %v: error %v, want a non-finite parameter error", args, err)
		}
		if out.Len() != 0 {
			t.Fatalf("args %v: wrote %d bytes of trace", args, out.Len())
		}
	}
}

func TestArrivalModels(t *testing.T) {
	for _, model := range []string{"poisson", "mmpp", "diurnal"} {
		var out bytes.Buffer
		if err := run([]string{"-arrival", model, "-n", "100"}, &out); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if _, err := trace.Read(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("%s produced unreadable trace: %v", model, err)
		}
	}
}

func TestDemandModels(t *testing.T) {
	for _, model := range []string{"exp", "pareto", "det"} {
		var out bytes.Buffer
		if err := run([]string{"-demand", model, "-n", "100"}, &out); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
	}
}

func TestCLFConversion(t *testing.T) {
	log := `h - - [02/Jun/1999:04:05:06 -0700] "GET /a.html HTTP/1.0" 200 1000
h - - [02/Jun/1999:04:05:07 -0700] "GET /cgi-bin/q?x=1 HTTP/1.0" 200 500
not a log line
`
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-clf", path}, &out); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("%d requests, want 2 (garbage skipped)", len(tr.Requests))
	}
	if tr.Requests[1].Class != trace.Dynamic {
		t.Fatal("CGI line not classified dynamic")
	}
}
