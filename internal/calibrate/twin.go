package calibrate

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// Twin regenerates a synthetic workload from a fitted model and runs it
// through the same serve → sanitize → observe pipeline the source went
// through, so Validate compares like with like. It observes (core.Observe)
// rather than characterizes: Validate reads only the calibration core.
// Generation rides the sharded event stream into the simulator; the
// realization is a pure function of (model, seed) at any shard count.
func Twin(m gismo.Model, seed int64, timeout int64) (*core.Characterization, error) {
	clean, err := twinTrace(m, seed)
	if err != nil {
		return nil, err
	}
	char, err := core.Observe(clean, timeout)
	if err != nil {
		return nil, fmt.Errorf("calibrate: twin observe: %w", err)
	}
	return char, nil
}

// twinTrace generates and serves the twin workload and returns its
// sanitized trace. The twin owns that trace: the served transfers go
// into a trace.Collector, which sorts and sanitizes them in place.
func twinTrace(m gismo.Model, seed int64) (*trace.Trace, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ws, err := gismo.NewStreamSeeded(m, seed, gismo.DefaultShards())
	if err != nil {
		return nil, fmt.Errorf("calibrate: twin generate: %w", err)
	}
	defer ws.Close()

	var served trace.Collector
	_, err = simulate.RunStream(ws, ws.Population(), m.Horizon, simulate.DefaultConfig(), uint64(seed), simulate.StreamSinks{
		Transfer: func(t trace.Transfer) error {
			served.Add(t)
			return nil
		},
		Names: func(n *trace.Names) { served.Names = n },
	})
	if err != nil {
		return nil, fmt.Errorf("calibrate: twin serve: %w", err)
	}
	clean, _, err := served.Trace(m.Horizon)
	if err != nil {
		return nil, fmt.Errorf("calibrate: twin trace: %w", err)
	}
	return clean, nil
}
