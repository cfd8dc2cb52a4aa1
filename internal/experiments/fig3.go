package experiments

import "msweb/internal/queuemodel"

// RunFig3 computes the analytic Figure 3 curves with the paper's
// parameters (λ=1000, p=32, μ_h=1200, a ∈ {2/8, 3/7, 4/6}).
func RunFig3() []queuemodel.Fig3Curve {
	return queuemodel.Figure3(queuemodel.DefaultFig3Config())
}
