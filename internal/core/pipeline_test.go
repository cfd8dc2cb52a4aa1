package core

import (
	"testing"

	"msweb/internal/trace"
)

func TestPipelineDefaultMatchesMS(t *testing.T) {
	// NewMS and an explicitly assembled default pipeline must make the
	// same decisions from the same seed: the legacy constructor is the
	// default pipeline, not a parallel implementation.
	mkView := func() *View {
		v := testView([]int{0}, []int{1, 2, 3})
		v.Load[1] = Load{CPUIdle: 0.4, DiskAvail: 0.7, Speed: 1}
		v.Load[2] = Load{CPUIdle: 0.7, DiskAvail: 0.4, Speed: 1}
		v.Load[3] = Load{CPUIdle: 0.6, DiskAvail: 0.6, Speed: 1}
		return v
	}
	ms := NewMS(WTable{3: 0.8}, 42)
	pl := NewPipeline(PipelineConfig{
		Name:      "M/S",
		Admission: NewTheta2Admission(DefaultReservationConfig()),
		Routing:   NewRSRCRouting(42),
		WTable:    WTable{3: 0.8},
	})
	va, vb := mkView(), mkView()
	ms.Tick(0, va)
	pl.Tick(0, vb)
	for i := 0; i < 200; i++ {
		class := trace.Dynamic
		if i%3 == 0 {
			class = trace.Static
		}
		req := Request{Class: class, Script: i % 5}
		a, b := ms.Place(req, 0, va), pl.Place(req, 0, vb)
		if a != b {
			t.Fatalf("request %d: NewMS placed at %d, explicit default pipeline at %d", i, a, b)
		}
	}
}

func TestPipelineStageNames(t *testing.T) {
	p := NewPipeline(PipelineConfig{Seed: 1})
	if p.AdmissionName() != AdmissionTheta2 || p.RoutingName() != RoutingRSRC {
		t.Fatalf("default stages = %q+%q", p.AdmissionName(), p.RoutingName())
	}
	if p.Name() != AdmissionTheta2+"+"+RoutingRSRC {
		t.Fatalf("derived name = %q", p.Name())
	}
	q := NewPipeline(PipelineConfig{
		Admission: NewOpenAdmission(),
		Routing:   NewJSQRouting(2, 1),
	})
	if q.Name() != "open+jsq2" {
		t.Fatalf("composed name = %q", q.Name())
	}
}

func TestJSQRoutingPrefersShortQueues(t *testing.T) {
	v := testView([]int{0}, []int{1, 2, 3})
	v.Load[0].CPUQueue = 4 // the master is eligible under open admission
	v.Load[1].CPUQueue = 9
	v.Load[2].CPUQueue = 9
	v.Load[3].CPUQueue = 0
	// Full-scan JSQ (d >= pool) must always find the empty queue.
	p := NewPipeline(PipelineConfig{
		Admission: NewOpenAdmission(), Routing: NewJSQRouting(8, 1),
		PlacementImpact: NoPlacementImpact,
	})
	for i := 0; i < 20; i++ {
		if got := p.Place(Request{Class: trace.Dynamic}, 0, v); got != 3 {
			t.Fatalf("JSQ(full) placed at %d, want 3", got)
		}
	}
	// JSQ(2) samples: over many placements the short queue must dominate
	// and every placement must stay in the candidate set.
	p2 := NewPipeline(PipelineConfig{
		Admission: closedCap(), Routing: NewJSQRouting(2, 7),
		PlacementImpact: NoPlacementImpact,
	})
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		got := p2.Place(Request{Class: trace.Dynamic}, 0, v)
		if got == 0 {
			t.Fatal("a closed cap placed at the master")
		}
		counts[got]++
	}
	if counts[3] <= counts[1] || counts[3] <= counts[2] {
		t.Fatalf("JSQ(2) did not favor the empty queue: %v", counts)
	}
}

func TestMaxWeightRoutingDrainTime(t *testing.T) {
	v := testView([]int{0}, []int{1, 2})
	// Node 1: long queue on slow hardware. Node 2: slightly longer queue
	// on 4× hardware → much shorter drain time.
	v.Load[1] = Load{CPUQueue: 6, Speed: 1, CPUIdle: 0.5, DiskAvail: 0.5}
	v.Load[2] = Load{CPUQueue: 8, Speed: 4, CPUIdle: 0.5, DiskAvail: 0.5}
	p := NewPipeline(PipelineConfig{
		Admission: closedCap(), Routing: NewMaxWeightRouting(1),
		WTable: WTable{1: 1}, PlacementImpact: NoPlacementImpact,
	})
	if got := p.Place(Request{Class: trace.Dynamic, Script: 1}, 0, v); got != 2 {
		t.Fatalf("MaxWeight placed at %d, want fast node 2", got)
	}
}

func TestRandomRoutingSpreads(t *testing.T) {
	v := testView([]int{0}, []int{1, 2, 3})
	p := NewPipeline(PipelineConfig{
		Admission: closedCap(), Routing: NewRandomRouting(1),
		PlacementImpact: NoPlacementImpact,
	})
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		counts[p.Place(Request{Class: trace.Dynamic}, 0, v)]++
	}
	for _, id := range v.Slaves {
		if counts[id] == 0 {
			t.Fatalf("random routing never used node %d: %v", id, counts)
		}
	}
	if counts[0] > 0 {
		t.Fatalf("random routing used the master under a closed cap: %v", counts)
	}
}

// TestDeniesMasterAbsorption pins the verdict both planes' shedders
// read through MasterAdmission in the no-routable-slave regime.
func TestDeniesMasterAbsorption(t *testing.T) {
	for _, c := range []struct {
		name  string
		p     *Pipeline
		admit bool
	}{
		{"closed cap", NewPipeline(PipelineConfig{Admission: closedCap(), Seed: 1}), false},
		{"fresh theta2", NewMS(nil, 1), false},
		{"observe-only theta2", NewMS(nil, 1, WithoutReservation()), true},
		{"open", NewPipeline(PipelineConfig{Admission: NewOpenAdmission(), Seed: 1}), true},
	} {
		var adm MasterAdmission = c.p
		if got := adm.AdmitsAtMaster(); got != c.admit {
			t.Errorf("%s: AdmitsAtMaster = %v, want %v", c.name, got, c.admit)
		}
	}
	// Ticked on an all-master view, θ₂ = 1: the cap opens.
	ms := NewMS(nil, 1)
	ms.Tick(0, testView([]int{0}, nil))
	if !ms.AdmitsAtMaster() {
		t.Error("theta2 at m = p still denies master absorption")
	}
}

// closedCap is a θ₂ admission stage whose cap starts at 0, so until a
// Tick recomputes it no dynamic request is admitted at a master.
func closedCap() *Theta2Admission {
	return NewTheta2Admission(ReservationConfig{InitialTheta: 0})
}

func TestPipelinePlaceDoesNotAllocate(t *testing.T) {
	routings := map[string]func() RoutingPolicy{
		"rsrc":      func() RoutingPolicy { return NewRSRCRouting(1) },
		"jsq2":      func() RoutingPolicy { return NewJSQRouting(2, 1) },
		"maxweight": func() RoutingPolicy { return NewMaxWeightRouting(1) },
		"random":    func() RoutingPolicy { return NewRandomRouting(1) },
	}
	for name, mk := range routings {
		p := NewPipeline(PipelineConfig{Routing: mk(), Seed: 1})
		v := testView([]int{0}, []int{1, 2, 3})
		p.Tick(0, v)
		req := Request{Class: trace.Dynamic, Script: 1}
		p.Place(req, 0, v) // warm the scratch buffers
		if avg := testing.AllocsPerRun(200, func() {
			p.Place(req, 0, v)
		}); avg != 0 {
			t.Errorf("%s: Place allocates %v/op, want 0", name, avg)
		}
	}
}

func TestPoliciesReturnValidNodesPipeline(t *testing.T) {
	// The competitor pipelines obey the same contract as the classic
	// policies: a valid node for every class/topology combination.
	mk := []func() Policy{
		func() Policy {
			return NewPipeline(PipelineConfig{Admission: NewOpenAdmission(), Routing: NewJSQRouting(2, 1)})
		},
		func() Policy {
			return NewPipeline(PipelineConfig{Admission: NewOpenAdmission(), Routing: NewMaxWeightRouting(2)})
		},
		func() Policy {
			return NewPipeline(PipelineConfig{Admission: NewOpenAdmission(), Routing: NewRandomRouting(4)})
		},
	}
	views := []*View{
		testView([]int{0}, []int{1, 2, 3}),
		testView([]int{0, 1}, nil), // no slave tier
		testView([]int{0}, []int{1}),
	}
	for _, f := range mk {
		p := f()
		for _, v := range views {
			p.Tick(0, v)
			for i := 0; i < 50; i++ {
				for _, class := range []trace.Class{trace.Static, trace.Dynamic} {
					got := p.Place(Request{Class: class, Script: i % 3}, 0, v)
					if got < 0 || got >= v.P() {
						t.Fatalf("%s placed at %d outside cluster of %d", p.Name(), got, v.P())
					}
					if class == trace.Static && got != 0 {
						t.Fatalf("%s moved a static to %d", p.Name(), got)
					}
				}
			}
		}
	}
}
