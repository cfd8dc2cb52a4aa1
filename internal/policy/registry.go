// Package policy is the string-keyed registry of policy presets: every
// front-end (msbench, mscluster, the benchmark) names a policy by its
// preset, so a name means the same thing everywhere and the tournament
// driver can enumerate the whole field. The registry builds core.Policy
// values (pipelines, or the flat baseline); both execution planes
// consume them unchanged.
package policy

import (
	"fmt"

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
	{"flat", "no redirection: every request runs where it arrived", false,
		func(wt core.WTable, seed int64) core.Policy { return core.NewFlat() }},
	{"jsq2", "power-of-2-choices: sample 2 nodes, join the shorter queue", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "JSQ(2)", Admission: core.NewOpenAdmission(),
				Routing: core.NewJSQRouting(2, seed), WTable: wt,
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
	{"greedy-rsrc", "greedy min-RSRC: no reservation, no sampling, no booking", true,
		func(wt core.WTable, seed int64) core.Policy {
			return core.NewPipeline(core.PipelineConfig{
				Name: "Greedy-RSRC", Admission: core.NewOpenAdmission(),
				Routing: core.NewRSRCRouting(seed), DisableSampling: true,
				PlacementImpact: core.NoPlacementImpact,
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
