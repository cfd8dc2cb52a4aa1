package queuemodel_test

import (
	"fmt"

	"msweb/internal/queuemodel"
)

// Size the master tier of a 32-node cluster serving 1000 req/s with a
// 3:7 dynamic:static mix and CGI forty times as expensive as a static
// fetch — the paper's running configuration.
func ExampleParams_OptimalPlan() {
	params := queuemodel.NewParams(32, 1000, 3.0/7.0, 1200, 1.0/40)
	plan, err := params.OptimalPlan()
	if err != nil {
		panic(err)
	}
	fmt.Printf("masters: %d\n", plan.M)
	fmt.Printf("reservation cap θ₂: %.3f\n", plan.Theta2)
	fmt.Printf("predicted improvement over flat: %.0f%%\n", plan.Improvement())
	// Output:
	// masters: 6
	// reservation cap θ₂: 0.140
	// predicted improvement over flat: 18%
}

// The balanced θ₂ depends only on m/p, r and a — the property that lets
// the on-line reservation controller compute it from observable ratios.
func ExampleParams_BalancedTheta() {
	small := queuemodel.NewParams(32, 1000, 0.4, 1200, 1.0/40)
	big := queuemodel.NewParams(128, 52000, 0.4, 31200, 1.0/40) // scaled cluster
	fmt.Printf("θ₂ small: %.4f\n", small.BalancedTheta(8))
	fmt.Printf("θ₂ big:   %.4f\n", big.BalancedTheta(32))
	// Output:
	// θ₂ small: 0.2031
	// θ₂ big:   0.2031
}
