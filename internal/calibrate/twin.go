package calibrate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/simulate"
)

// Twin regenerates a synthetic workload from a fitted model and runs it
// through the same serve → sanitize → observe pipeline the source went
// through (core.ObserveServed with the default server: the served rows
// observed as they come, with no trace built), so Validate
// compares like with like. It observes rather than characterizes:
// Validate reads only the calibration core. The realization is a pure
// function of (model, seed) at any GOMAXPROCS.
func Twin(m gismo.Model, seed int64, timeout int64) (*core.Characterization, error) {
	char, err := core.ObserveServed(m, simulate.DefaultConfig(), seed, timeout)
	if err != nil {
		return nil, fmt.Errorf("calibrate: twin: %w", err)
	}
	return char, nil
}
