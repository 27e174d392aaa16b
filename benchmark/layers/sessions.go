package layers

import (
	"repro/internal/core"
	"repro/internal/sessions"
)

// ProbeSessions times sessionization at the paper's timeout and the
// Figure 9 timeout sweep Characterize runs after it.
func ProbeSessions(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	ns, _, err := measure(reps, func() (err error) {
		fx.Set, err = sessions.Sessionize(fx.Clean, sessions.DefaultTimeout)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("sessions.sessionize_ns_per_transfer", perItem(ns, fx.Clean.NumTransfers()), "ns")

	ns, _, err = measure(reps, func() error {
		_, err := sessions.SweepTimeout(fx.Clean, core.DefaultTimeoutSweep)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("sessions.sweep_ms", ns/1e6, "ms")
	return nil
}
