package layers

import (
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/sessions"
)

// ProbeCalibrate times the three steps of the calibration loop and
// counts the KS rejections of the twin. The count is a correctness
// signal that must repeat exactly for a given seed; see the README.
func ProbeCalibrate(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	var model gismo.Model
	ns, _, _ := measure(reps, func() error {
		model, _ = calibrate.Fit(fx.Char)
		return nil
	})
	m.Set("calibrate.fit_ms", ns/1e6, "ms")

	var twin *core.Characterization
	ns, _, err := measure(reps, func() (err error) {
		twin, err = calibrate.Twin(model, fx.Seed, sessions.DefaultTimeout)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("calibrate.twin_ms", ns/1e6, "ms")

	var report calibrate.ValidationReport
	ns, _, _ = measure(reps, func() error {
		report = calibrate.Validate(fx.Char, twin)
		return nil
	})
	m.Set("calibrate.validate_ms", ns/1e6, "ms")
	m.Set("calibrate.ks_rejections", float64(len(report.Rejections())), "count")
	return nil
}
