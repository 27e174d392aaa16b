package layers

import (
	"repro/internal/core"
	"repro/internal/sessions"
)

// ProbeCore times the whole batch characterization and, separately,
// the Figure 6 Poisson replica it ends with.
func ProbeCore(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	ns, _, err := measure(reps, func() (err error) {
		fx.Char, err = core.Characterize(fx.Clean, sessions.DefaultTimeout, nil, fx.Seed)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("core.characterize_ms", ns/1e6, "ms")

	ns, _, _ = measure(reps, func() error {
		core.BuildPoissonReplica(fx.Set, fx.Clean.Horizon, fx.Char.Client.Interarrivals, fx.Seed)
		return nil
	})
	m.Set("core.poisson_replica_ms", ns/1e6, "ms")
	return nil
}
