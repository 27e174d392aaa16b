package layers

import (
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// ProbeTrace times building a trace from parsed entries and the
// Section 2.4 sanitization pass.
func ProbeTrace(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	ns, _, err := measure(reps, func() (err error) {
		fx.Trace, err = trace.FromEntries(fx.Parsed, wmslog.TraceEpoch, fx.Model.Horizon)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("trace.from_entries_ns_per_entry", perItem(ns, len(fx.Parsed)), "ns")

	ns, _, _ = measure(reps, func() error {
		fx.Clean, _ = fx.Trace.Sanitize()
		return nil
	})
	m.Set("trace.sanitize_ns_per_transfer", perItem(ns, fx.Trace.NumTransfers()), "ns")
	return nil
}
