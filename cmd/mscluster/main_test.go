package main

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"

	"msweb/internal/httpcluster"
	"msweb/internal/policy"
)

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 6 || cfg.Masters != 2 {
		t.Fatalf("defaults: %d nodes, %d masters", cfg.Nodes, cfg.Masters)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	cases := [][]string{
		{"-policy", "weird"},
		{"-nodes", "0"},
		{"-masters", "9", "-nodes", "2"},
		{"-badflag"},
		// A time scale must be a non-negative finite factor: NaN
		// would boot nodes whose quanta are non-finite durations.
		{"-timescale", "NaN"},
		{"-timescale", "+Inf"},
		{"-timescale", "-1"},
	}
	for _, args := range cases {
		if _, err := buildConfig(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestAllPoliciesConstruct(t *testing.T) {
	// Every registry preset (the old policyFactory names included) must
	// yield a working cluster configuration through the unified flags.
	for _, name := range policy.Names() {
		cfg, err := buildConfig([]string{"-policy", name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p := cfg.MakePolicy(0); p == nil || p.Name() == "" {
			t.Fatalf("%s: bad policy instance", name)
		}
	}
}

func TestCustomPipelineFlags(t *testing.T) {
	cfg, err := buildConfig([]string{"-policy", "ms"})
	if err != nil {
		t.Fatal(err)
	}
	if p := cfg.MakePolicy(0); p == nil || p.Name() != "M/S" {
		t.Fatal("the ms preset did not construct")
	}
}

func TestListPolicies(t *testing.T) {
	if _, err := buildConfig([]string{"-list-policies"}); !errors.Is(err, errListed) {
		t.Fatalf("want errListed, got %v", err)
	}
}

func TestClusterBootsAndServes(t *testing.T) {
	cfg, err := buildConfig([]string{"-nodes", "3", "-masters", "1", "-timescale", "0.25"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := httpcluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	var banner bytes.Buffer
	printBanner(&banner, cfg, c)
	if !strings.Contains(banner.String(), "cluster up: 3 nodes, 1 masters") {
		t.Fatalf("banner:\n%s", banner.String())
	}

	resp, err := http.Get(c.MasterURLs()[0] + "/req?class=s&demand=0.001&w=0.3&script=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
