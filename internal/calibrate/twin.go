package calibrate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/simulate"
)

// Twin regenerates a synthetic workload from a fitted model and runs it
// through the same serve → sanitize → observe pipeline the source went
// through (core.Serve with the default server, then core.Observe), so
// Validate compares like with like. It observes rather than
// characterizes: Validate reads only the calibration core. The
// realization is a pure function of (model, seed) at any GOMAXPROCS.
func Twin(m gismo.Model, seed int64, timeout int64) (*core.Characterization, error) {
	s, err := core.Serve(m, simulate.DefaultConfig(), seed)
	if err != nil {
		return nil, fmt.Errorf("calibrate: twin: %w", err)
	}
	char, err := core.Observe(s.Trace, timeout)
	if err != nil {
		return nil, fmt.Errorf("calibrate: twin observe: %w", err)
	}
	return char, nil
}
