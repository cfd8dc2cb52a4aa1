package core

import "msweb/internal/trace"

// Admission-stage implementations. The θ₂ reservation is the paper's
// mechanism; Open is the no-cap stage the competitor policies assume.

// Registered admission-stage names.
const (
	AdmissionTheta2        = "theta2"
	AdmissionTheta2Observe = "theta2-observe"
	AdmissionOpen          = "open"
)

// Theta2Admission is the reservation-for-static-processing admission
// stage: it wraps the self-stabilizing ReservationController and admits
// dynamics at masters only while the measured fraction stays under θ₂.
// It implements AdaptiveStats, so metrics exposition and experiment
// reports can publish the cap and its inputs.
type Theta2Admission struct {
	res *ReservationController
	// observeOnly keeps the estimators running but never enforces the
	// cap — the M/S-nr ablation (stats stay published, admission open).
	observeOnly bool
}

// NewTheta2Admission constructs the enforcing reservation stage.
func NewTheta2Admission(cfg ReservationConfig) *Theta2Admission {
	return &Theta2Admission{res: NewReservationController(cfg)}
}

// ObserveOnly disables cap enforcement while keeping every estimator
// running (the M/S-nr ablation). Returns the receiver for chaining.
func (a *Theta2Admission) ObserveOnly() *Theta2Admission {
	a.observeOnly = true
	return a
}

// Name implements AdmissionPolicy.
func (a *Theta2Admission) Name() string {
	if a.observeOnly {
		return AdmissionTheta2Observe
	}
	return AdmissionTheta2
}

// ObserveArrival implements AdmissionPolicy.
func (a *Theta2Admission) ObserveArrival(class trace.Class) { a.res.ObserveArrival(class) }

// AdmitAtMaster implements AdmissionPolicy.
func (a *Theta2Admission) AdmitAtMaster() bool {
	return a.observeOnly || a.res.AdmitAtMaster()
}

// CountPlacement implements AdmissionPolicy.
func (a *Theta2Admission) CountPlacement(atMaster bool) {
	a.res.CountDynamic()
	if atMaster {
		a.res.CountMasterDynamic()
	}
}

// ObserveCompletion implements AdmissionPolicy.
func (a *Theta2Admission) ObserveCompletion(class trace.Class, response, demand float64) {
	a.res.ObserveCompletion(class, response, demand)
}

// Tick implements AdmissionPolicy.
func (a *Theta2Admission) Tick(m, p int) { a.res.Recompute(m, p) }

// ThetaLimit implements AdaptiveStats.
func (a *Theta2Admission) ThetaLimit() float64 { return a.res.ThetaLimit() }

// ArrivalRatio implements AdaptiveStats.
func (a *Theta2Admission) ArrivalRatio() float64 { return a.res.A() }

// ServiceRatio implements AdaptiveStats.
func (a *Theta2Admission) ServiceRatio() float64 { return a.res.R() }

// OpenAdmission admits every dynamic request at every tier and keeps no
// estimators — the stage most modern dispatch policies (JSQ, MaxWeight)
// assume, where admission control is someone else's job.
type OpenAdmission struct{}

// NewOpenAdmission constructs the open admission stage.
func NewOpenAdmission() OpenAdmission { return OpenAdmission{} }

// Name implements AdmissionPolicy.
func (OpenAdmission) Name() string { return AdmissionOpen }

// ObserveArrival implements AdmissionPolicy.
func (OpenAdmission) ObserveArrival(trace.Class) {}

// AdmitAtMaster implements AdmissionPolicy.
func (OpenAdmission) AdmitAtMaster() bool { return true }

// CountPlacement implements AdmissionPolicy.
func (OpenAdmission) CountPlacement(bool) {}

// ObserveCompletion implements AdmissionPolicy.
func (OpenAdmission) ObserveCompletion(trace.Class, float64, float64) {}

// Tick implements AdmissionPolicy.
func (OpenAdmission) Tick(int, int) {}
