package simulate

import (
	"math/rand/v2"

	"repro/internal/gismo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// QoS-driven abandonment: the paper's stated future work.
//
// "We did not study the impact that network congestion, as reflected by
// increased packet drops or lost connections would have on user access
// patterns. We are currently investigating these issues." (Section 8.)
// The introduction hypothesizes the mechanism: stored-media viewers stop
// when QoS degrades (positive length/QoS correlation) because they can
// come back later; live viewers cannot revisit, so the correlation
// "may be much weaker and/or the mitigating QoS threshold may be
// significantly different".
//
// ApplyQoSAbandonment implements that counterfactual so it can be
// measured: congestion-bound transfers are truncated with probability
// AbandonProb to a uniformly drawn fraction of their intended length.
// Setting AbandonProb high models stored-media-like impatience; zero
// models the paper's observed live behaviour (stickiness regardless of
// QoS).

// QoSConfig parameterizes the abandonment counterfactual.
type QoSConfig struct {
	// AbandonProb is the probability that a congestion-bound transfer is
	// cut short.
	AbandonProb float64
	// MinFraction is the smallest fraction of the intended length an
	// abandoning viewer still watches before giving up.
	MinFraction float64
}

// DefaultQoSConfig models impatient (stored-media-like) viewers.
func DefaultQoSConfig() QoSConfig {
	return QoSConfig{AbandonProb: 0.8, MinFraction: 0.02}
}

// ApplyQoSAbandonment returns a copy of the trace with congestion-bound
// transfers (bandwidth below the threshold) truncated per the config.
// The returned count reports how many transfers were cut.
func ApplyQoSAbandonment(tr *trace.Trace, cfg QoSConfig, congestionBps int64, rng *rand.Rand) (*trace.Trace, int, error) {
	transfers := make([]trace.Transfer, len(tr.Transfers))
	copy(transfers, tr.Transfers)
	cut := 0
	for i := range transfers {
		t := &transfers[i]
		if t.Bandwidth >= congestionBps {
			continue
		}
		if rng.Float64() >= cfg.AbandonProb {
			continue
		}
		frac := cfg.MinFraction + rng.Float64()*(0.5-cfg.MinFraction)
		d := int64(frac * float64(t.Duration))
		if d < 1 {
			d = 1
		}
		if d < t.Duration {
			t.Duration = d
			t.Bytes = t.Bandwidth * d / 8
			cut++
		}
	}
	out, err := trace.New(tr.Horizon, transfers)
	if err != nil {
		return nil, 0, err
	}
	out.Names = tr.Names
	return out, cut, nil
}

// LengthBandwidthCorrelation measures the Spearman rank correlation
// between per-transfer bandwidth and transfer length — the QoS/viewing-
// time relationship the introduction reasons about. It is computed over
// display lengths (⌊t+1⌋).
func LengthBandwidthCorrelation(tr *trace.Trace) (float64, error) {
	lengths := make([]float64, tr.NumTransfers())
	bws := make([]float64, tr.NumTransfers())
	for i, t := range tr.Transfers {
		lengths[i] = float64(t.Duration) + 1
		bws[i] = float64(t.Bandwidth)
	}
	return spearman(lengths, bws)
}

// spearman defers to the stats package.
func spearman(xs, ys []float64) (float64, error) {
	return stats.SpearmanCorrelation(xs, ys)
}

// QoSStudy runs the abandonment counterfactual end to end on a workload:
// it serves the workload once, measures the length/bandwidth correlation
// of the live-behaviour trace (no abandonment), applies stored-media-like
// abandonment, and measures again.
type QoSStudy struct {
	LiveCorrelation      float64 // sticky viewers: near zero
	AbandonedCorrelation float64 // impatient viewers: clearly positive
	TransfersCut         int
}

// RunQoSStudy executes the study. rng seeds the serving pass and
// drives the abandonment draws.
func RunQoSStudy(w *gismo.Workload, serverCfg Config, qos QoSConfig, congestionBps int64, rng *rand.Rand) (*QoSStudy, error) {
	res, err := Run(w, serverCfg, rng.Uint64())
	if err != nil {
		return nil, err
	}
	live, err := LengthBandwidthCorrelation(res.Trace)
	if err != nil {
		return nil, err
	}
	cutTrace, cut, err := ApplyQoSAbandonment(res.Trace, qos, congestionBps, rng)
	if err != nil {
		return nil, err
	}
	abandoned, err := LengthBandwidthCorrelation(cutTrace)
	if err != nil {
		return nil, err
	}
	return &QoSStudy{
		LiveCorrelation:      live,
		AbandonedCorrelation: abandoned,
		TransfersCut:         cut,
	}, nil
}
