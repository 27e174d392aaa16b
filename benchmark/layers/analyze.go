package layers

import "repro/internal/analyze"

// ProbeAnalyze times the four batch layer analyses Characterize runs
// and the single-pass OnlineLayer that core.RunStreamed uses instead.
func ProbeAnalyze(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	batch := []struct {
		name string
		run  func() error
	}{
		{"analyze.client_layer_ms", func() error { _, err := analyze.AnalyzeClientLayer(fx.Set); return err }},
		{"analyze.session_layer_ms", func() error { _, err := analyze.AnalyzeSessionLayer(fx.Set); return err }},
		{"analyze.transfer_layer_ms", func() error { _, err := analyze.AnalyzeTransferLayer(fx.Clean); return err }},
		{"analyze.diversity_ms", func() error { _, err := analyze.AnalyzeDiversity(fx.Clean); return err }},
	}
	for _, b := range batch {
		ns, _, err := measure(reps, b.run)
		if err != nil {
			return err
		}
		m.Set(b.name, ns/1e6, "ms")
	}

	ns, _, err := measure(reps, func() error {
		online, err := analyze.NewOnlineLayer(fx.Clean.Horizon)
		if err != nil {
			return err
		}
		for _, t := range fx.Clean.Transfers {
			if err := online.Add(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.Set("analyze.online_add_ns_per_transfer", perItem(ns, fx.Clean.NumTransfers()), "ns")
	return nil
}
