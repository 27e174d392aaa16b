package layers

import (
	"runtime"

	"repro/internal/workload"
)

// ProbeWorkload times the generic K-way merge over one ordered
// SliceStream per core.
func ProbeWorkload(fx *Fixture, m Metrics) error {
	k := runtime.NumCPU()
	parts := make([][]workload.Event, k)
	for _, ev := range fx.Events {
		parts[ev.Session%k] = append(parts[ev.Session%k], ev)
	}
	ns, _, err := measure(fx.Sizes.ProbeReps, func() error {
		streams := make([]workload.Stream, k)
		for i, p := range parts {
			streams[i] = workload.NewSliceStream(p)
		}
		merged := workload.Merge(streams...)
		for {
			if _, ok := merged.Next(); !ok {
				return nil
			}
		}
	})
	if err != nil {
		return err
	}
	m.Set("workload.merge_ns_per_event", perItem(ns, len(fx.Events)), "ns")
	return nil
}
