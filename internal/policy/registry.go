// Package policy is the string-keyed registry behind the unified policy
// flag surface: every front-end (msbench, mscluster) resolves
// -policy presets and -admission-policy/-routing-policy/-routing-scorers
// pipeline specs through the same tables, so a policy name means the
// same thing everywhere and the tournament driver can enumerate the
// whole field. The registry builds core.Policy values (pipelines or the
// classic baselines); both execution planes consume them unchanged.
package policy

import (
	"fmt"
	"strconv"
	"strings"

	"msweb/internal/core"
)

// Builder constructs one policy instance. wt is the off-line sampling
// table (nil when the caller has none) and seed drives every tie-break
// RNG, so equal seeds reproduce equal decision streams.
type Builder func(wt core.WTable, seed int64) core.Policy

// Preset is a named, fully-assembled policy in the registry.
type Preset struct {
	// Name is the registry key (-policy NAME, tournament row label).
	Name string
	// Desc is the one-line help text.
	Desc string
	// Competitor marks policies that enter the default tournament field.
	Competitor bool
	// Build constructs an instance.
	Build Builder
}

// presets is the registry, in help/tournament display order.
var presets = []Preset{
	{"ms", "the paper's full M/S scheduler: θ₂ admission + min-RSRC routing", true,
		func(wt core.WTable, seed int64) core.Policy { return core.NewMS(wt, seed) }},
	{"ms-ns", "M/S without off-line w sampling (w ≡ 0.5)", false,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewMS(wt, seed, core.WithoutSampling(), core.WithName("M/S-ns"))
		}},
	{"ms-nr", "M/S without the θ₂ reservation cap (estimators still observable)", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewMS(wt, seed, core.WithoutReservation(), core.WithName("M/S-nr"))
		}},
	{"msprime", "fixed M/S′ split: dynamics uniformly over slaves, no load awareness", false,
		func(wt core.WTable, seed int64) core.Policy { return core.NewMSPrime(seed) }},
	{"rr", "round-robin over slaves, statics local", false,
		func(wt core.WTable, seed int64) core.Policy { return core.NewRoundRobin() }},
	{"leastloaded", "shortest combined queue over slaves, statics local", false,
		func(wt core.WTable, seed int64) core.Policy { return core.NewLeastLoaded(seed) }},
	{"flat", "no redirection: every request runs where it arrived", false,
		func(wt core.WTable, seed int64) core.Policy { return core.NewFlat() }},
	{"jsq2", "power-of-2-choices: sample 2 nodes, join the shorter queue", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "JSQ(2)", Admission: core.NewOpenAdmission(),
				Routing: core.NewJSQRouting(2, seed), WTable: wt,
			})
		}},
	{"jsq3", "power-of-3-choices: sample 3 nodes, join the shorter queue", false,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "JSQ(3)", Admission: core.NewOpenAdmission(),
				Routing: core.NewJSQRouting(3, seed), WTable: wt,
			})
		}},
	{"maxweight", "MaxWeight-style: least request-weighted backlog per unit speed", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "MaxWeight", Admission: core.NewOpenAdmission(),
				Routing: core.NewMaxWeightRouting(seed), WTable: wt,
			})
		}},
	{"cmu", "c/μ-rule: highest effective idle capacity for the request's mix", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "c/mu", Admission: core.NewOpenAdmission(),
				Routing: core.NewCMuRouting(seed), WTable: wt,
			})
		}},
	{"balanced", "balanced fairness (Bonald & Comte): least bottleneck occupancy per unit speed", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "Balanced", Admission: core.NewOpenAdmission(),
				Routing: core.NewBalancedRouting(seed), WTable: wt,
			})
		}},
	{"greedy-rsrc", "greedy min-RSRC: no reservation, no sampling, no booking", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "Greedy-RSRC", Admission: core.NewOpenAdmission(),
				Routing: core.NewRSRCRouting(seed), DisableSampling: true,
				PlacementImpact: core.NoPlacementImpact,
			})
		}},
	{"msr", "Markovian service-rate routing: commit to the best queue-discounted rate, hold for a memoryless epoch", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "MSR", Admission: core.NewOpenAdmission(),
				Routing: core.NewMSRRouting(seed, 0), WTable: wt,
			})
		}},
	{"random", "uniform random dispatch over eligible nodes", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "Random", Admission: core.NewOpenAdmission(),
				Routing: core.NewRandomRouting(seed), WTable: wt,
			})
		}},
}

// Presets returns the registry in display order (a copy).
func Presets() []Preset { return append([]Preset(nil), presets...) }

// Names returns every preset name in display order.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Name
	}
	return out
}

// TournamentNames returns the default tournament field: the paper's
// scheduler plus every competitor preset.
func TournamentNames() []string {
	var out []string
	for _, p := range presets {
		if p.Competitor {
			out = append(out, p.Name)
		}
	}
	return out
}

// Lookup resolves a preset by name.
func Lookup(name string) (Preset, error) {
	for _, p := range presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("policy: unknown preset %q (see -list-policies)", name)
}

// Spec is a parsed three-stage pipeline specification — the custom
// alternative to a preset, assembled from the unified flag surface.
type Spec struct {
	// Admission names the first stage (core.AdmissionTheta2 and friends).
	Admission string
	// Routing names the second stage ("rsrc", "jsq2"/"jsq7", "maxweight",
	// "cmu", "random", "scorers").
	Routing string
	// Scorers is the weighted composition for Routing == "scorers":
	// comma-separated name:weight terms, e.g. "rsrc:1,qlen:0.5".
	Scorers string
	// Scheduling names the per-node discipline ("mlfq", "rr", "fcfs").
	Scheduling string
	// Name optionally overrides the reported policy name.
	Name string
}

// Admissions lists the registered admission-stage names.
func Admissions() []string {
	return []string{core.AdmissionTheta2, core.AdmissionTheta2Observe, core.AdmissionOpen, core.AdmissionSlavesOnly}
}

// Routings lists the registered routing-stage names (jsqD stands for any
// small d, e.g. jsq2, jsq5).
func Routings() []string {
	return []string{core.RoutingRSRC, "jsqD", core.RoutingMaxWeight, core.RoutingCMu, core.RoutingBalanced, core.RoutingMSR, core.RoutingRandom, core.RoutingScorers}
}

// ScorerNames lists the registered scorer names.
func ScorerNames() []string {
	return []string{core.ScorerRSRC, core.ScorerQueueLen, core.ScorerIdle, core.ScorerSpeed, core.ScorerAffinity}
}

func buildAdmission(name string) (core.AdmissionPolicy, error) {
	switch name {
	case "", core.AdmissionTheta2:
		return core.NewTheta2Admission(core.DefaultReservationConfig()), nil
	case core.AdmissionTheta2Observe:
		return core.NewTheta2Admission(core.DefaultReservationConfig()).ObserveOnly(), nil
	case core.AdmissionOpen:
		return core.NewOpenAdmission(), nil
	case core.AdmissionSlavesOnly:
		return core.NewSlavesOnlyAdmission(), nil
	}
	return nil, fmt.Errorf("policy: unknown admission policy %q (have %s)", name, strings.Join(Admissions(), ", "))
}

func buildRouting(name, scorers string, seed int64) (core.RoutingPolicy, error) {
	switch {
	case name == "" || name == core.RoutingRSRC:
		return core.NewRSRCRouting(seed), nil
	case name == core.RoutingMaxWeight:
		return core.NewMaxWeightRouting(seed), nil
	case name == core.RoutingCMu:
		return core.NewCMuRouting(seed), nil
	case name == core.RoutingBalanced:
		return core.NewBalancedRouting(seed), nil
	case name == core.RoutingMSR:
		return core.NewMSRRouting(seed, 0), nil
	case name == core.RoutingRandom:
		return core.NewRandomRouting(seed), nil
	case name == core.RoutingScorers:
		terms, err := ParseScorers(scorers)
		if err != nil {
			return nil, err
		}
		return core.NewScorerRouting(seed, terms...), nil
	case strings.HasPrefix(name, core.RoutingJSQPrefix):
		d, err := strconv.Atoi(name[len(core.RoutingJSQPrefix):])
		if err != nil || d < 1 {
			return nil, fmt.Errorf("policy: %q needs a positive sample width, e.g. jsq2", name)
		}
		return core.NewJSQRouting(d, seed), nil
	}
	return nil, fmt.Errorf("policy: unknown routing policy %q (have %s)", name, strings.Join(Routings(), ", "))
}

// ParseScorers parses a comma-separated name:weight composition
// ("rsrc:1,qlen:0.5"; a bare name means weight 1) into scorer terms.
func ParseScorers(s string) ([]core.WeightedScorer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("policy: -routing-policy scorers needs -routing-scorers, e.g. %q", "rsrc:1,qlen:0.5")
	}
	var terms []core.WeightedScorer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		weight := 1.0
		if hasWeight {
			var err error
			if weight, err = strconv.ParseFloat(weightStr, 64); err != nil {
				return nil, fmt.Errorf("policy: bad scorer weight in %q: %v", part, err)
			}
		}
		var sc core.Scorer
		switch name {
		case core.ScorerRSRC:
			sc = core.RSRCScorer{}
		case core.ScorerQueueLen:
			sc = core.QueueLenScorer{}
		case core.ScorerIdle:
			sc = core.IdleScorer{}
		case core.ScorerSpeed:
			sc = core.SpeedScorer{}
		case core.ScorerAffinity:
			sc = core.AffinityScorer{}
		default:
			return nil, fmt.Errorf("policy: unknown scorer %q (have %s)", name, strings.Join(ScorerNames(), ", "))
		}
		terms = append(terms, core.WeightedScorer{Scorer: sc, Weight: weight})
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("policy: empty scorer composition %q", s)
	}
	return terms, nil
}

// ValidDiscipline reports whether name is a registered per-node
// scheduling discipline ("" counts as the default).
func ValidDiscipline(name string) error {
	if name == "" {
		return nil
	}
	for _, d := range core.Disciplines() {
		if name == d {
			return nil
		}
	}
	return fmt.Errorf("policy: unknown scheduling policy %q (have %s)", name, strings.Join(core.Disciplines(), ", "))
}

// Build assembles the pipeline the spec describes.
func (s Spec) Build(wt core.WTable, seed int64) (core.Policy, error) {
	adm, err := buildAdmission(s.Admission)
	if err != nil {
		return nil, err
	}
	route, err := buildRouting(s.Routing, s.Scorers, seed)
	if err != nil {
		return nil, err
	}
	if err := ValidDiscipline(s.Scheduling); err != nil {
		return nil, err
	}
	return core.NewPipeline(core.PipelineConfig{
		Name:       s.Name,
		Admission:  adm,
		Routing:    route,
		Scheduling: s.Scheduling,
		WTable:     wt,
	}), nil
}
