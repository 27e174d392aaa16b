package layers

import (
	"runtime"

	"repro/internal/simulate"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// ProbeSimulate times serving without generation: the events come from
// a pre-drained SliceStream and the entry sink does nothing, so the
// sequential and the laned driver are compared on the serve cost alone
// (ROADMAP item 1a). simulate.Run is the materializing twin.
func ProbeSimulate(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	cfg := simulate.DefaultConfig()
	sinks := simulate.StreamSinks{Entry: func(*wmslog.Entry) error { return nil }}
	transfers := len(fx.Events)

	ns, mallocs, err := measure(reps, func() error {
		_, err := simulate.RunStream(workload.NewSliceStream(fx.Events), fx.Pop, fx.Model.Horizon, cfg, uint64(fx.Seed), sinks)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("simulate.serve_ns_per_transfer", perItem(ns, transfers), "ns")
	m.Set("simulate.serve_allocs_per_transfer", perItem(mallocs, transfers), "count")

	ns, _, err = measure(reps, func() error {
		_, err := simulate.RunStreamSharded(workload.NewSliceStream(fx.Events), fx.Pop, fx.Model.Horizon, cfg, uint64(fx.Seed), runtime.NumCPU(), sinks)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("simulate.serve_sharded_ns_per_transfer", perItem(ns, transfers), "ns")

	ns, _, err = measure(reps, func() error {
		_, err := simulate.Run(fx.Workload, cfg, uint64(fx.Seed))
		return err
	})
	if err != nil {
		return err
	}
	m.Set("simulate.run_ns_per_transfer", perItem(ns, len(fx.Workload.Requests)), "ns")
	return nil
}
