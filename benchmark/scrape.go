package main

import (
	"bufio"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"msweb/internal/httpcluster"
)

// Reading the cluster's /metrics text from outside: the per-layer
// counters that have no exported accessor.

// promSample is one line of a /metrics page.
type promSample struct {
	name, labels string
	value        float64
}

type promPage []promSample

// scrape fetches and parses one node's /metrics text.
func scrape(base string) (promPage, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var page promPage
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name, labels = name[:b], strings.TrimSuffix(name[b+1:], "}")
		}
		page = append(page, promSample{name, labels, v})
	}
	return page, sc.Err()
}

func (p promPage) sum(name string) float64 {
	var s float64
	for _, x := range p {
		if x.name == name {
			s += x.value
		}
	}
	return s
}

// meanNonNegative averages a gauge family over the series that have a
// value (the exporters use -1 for "never updated").
func (p promPage) meanNonNegative(name string) float64 {
	var s float64
	var n int
	for _, x := range p {
		if x.name == name && x.value >= 0 {
			s += x.value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// histQuantile reads a quantile off a cumulative-bucket histogram family.
func (p promPage) histQuantile(name string, q float64) float64 {
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	for _, x := range p {
		if x.name != name+"_bucket" {
			continue
		}
		i := strings.Index(x.labels, `le="`)
		if i < 0 {
			continue
		}
		s := x.labels[i+4:]
		s = s[:strings.IndexByte(s, '"')]
		le := math.Inf(1)
		if s != "+Inf" {
			le, _ = strconv.ParseFloat(s, 64) // exporter-formatted float
		}
		bs = append(bs, bucket{le, x.value})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * bs[len(bs)-1].cum
	for _, b := range bs {
		if b.cum >= rank {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}

// scrapeAll fetches every node's page, masters first.
func scrapeAll(c *httpcluster.Cluster) ([]promPage, error) {
	var pages []promPage
	for _, m := range c.Masters {
		p, err := scrape(m.URL)
		if err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
	for _, s := range c.Slaves {
		p, err := scrape(s.URL)
		if err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// sumPages adds a counter family over every page.
func sumPages(pages []promPage, name string) float64 {
	var s float64
	for _, p := range pages {
		s += p.sum(name)
	}
	return s
}
