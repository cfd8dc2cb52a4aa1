package chaos

import (
	"msweb/internal/httpcluster"
)

// Harness is a live loopback cluster whose master→slave links run
// through fault-injection proxies. Masters talk to slaves only via the
// proxies, so a schedule event makes a slave unreachable (or slow) from
// every master at once while the client↔master side stays reliable —
// the same single-point-of-failure shape as the simulator's
// AvailabilityEvent flipping one node's bit.
type Harness struct {
	Cluster *httpcluster.Cluster
	// Proxies maps slave node id → its fault proxy.
	Proxies map[int]*Proxy
}

// Launch starts cfg's cluster with a proxy interposed in front of every
// slave. cfg is otherwise interpreted exactly as httpcluster.Start.
func Launch(cfg httpcluster.Config) (*Harness, error) {
	c, err := httpcluster.Start(cfg)
	if err != nil {
		return nil, err
	}
	h := &Harness{Cluster: c, Proxies: map[int]*Proxy{}}
	for _, s := range c.Slaves {
		p, err := NewProxy(s.URL)
		if err != nil {
			h.Shutdown()
			return nil, err
		}
		h.Proxies[s.ID] = p
		// Point every master's view of this slave at the proxy. Load
		// polling and frame dispatch both route through it, so a fault
		// is visible to breakers on both paths.
		for _, m := range c.Masters {
			m.SetNodeURL(s.ID, p.URL)
		}
	}
	return h, nil
}

// SlaveIDs returns the faultable node ids (those with proxies).
func (h *Harness) SlaveIDs() []int {
	ids := make([]int, 0, len(h.Proxies))
	for _, s := range h.Cluster.Slaves {
		ids = append(ids, s.ID)
	}
	return ids
}

// MasterURLs returns the client-facing base URLs in master order.
func (h *Harness) MasterURLs() []string { return h.Cluster.MasterURLs() }

// Shutdown stops the proxies, then the cluster.
func (h *Harness) Shutdown() {
	for _, p := range h.Proxies {
		p.Close()
	}
	h.Cluster.Shutdown()
}
