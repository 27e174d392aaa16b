package layers

import (
	"math/rand/v2"
	"runtime"

	"repro/internal/gismo"
)

// ProbeGismo times the generator: stream construction (thinning plus
// population, overlapped), the population build alone, event
// expansion drained through Next at one shard and at one per core,
// and the materializing GenerateSeeded twin.
func ProbeGismo(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	startNS, _, err := measure(reps, func() error {
		ws, err := gismo.NewStream(fx.Model, fx.Seed, gismo.DefaultShards())
		if err != nil {
			return err
		}
		ws.Close()
		return nil
	})
	if err != nil {
		return err
	}
	m.Set("gismo.start_ms", startNS/1e6, "ms")

	popNS, _, err := measure(reps, func() error {
		_, err := gismo.NewPopulation(fx.Model.NumClients, fx.Model.Topology, rand.New(rand.NewPCG(uint64(fx.Seed), 0)))
		return err
	})
	if err != nil {
		return err
	}
	m.Set("gismo.population_ms", popNS/1e6, "ms")

	// The stream is built outside the timed region: generate_* is the
	// cost of expanding and merging events, not of starting up.
	drain := func(shards int) (nsPerEvent, allocsPerEvent float64, err error) {
		var ws *gismo.WorkloadStream
		events := 0
		ns, mallocs, err := measurePrepared(reps, func() (err error) {
			if ws != nil {
				ws.Close()
			}
			ws, err = gismo.NewStream(fx.Model, fx.Seed, shards)
			return err
		}, func() error {
			for events = 0; ; events++ {
				if _, ok := ws.Next(); !ok {
					return nil
				}
			}
		})
		if ws != nil {
			ws.Close()
		}
		return perItem(ns, events), perItem(mallocs, events), err
	}
	ns, mallocs, err := drain(1)
	if err != nil {
		return err
	}
	m.Set("gismo.generate_ns_per_event", ns, "ns")
	m.Set("gismo.generate_allocs_per_event", mallocs, "count")
	if ns, _, err = drain(runtime.NumCPU()); err != nil {
		return err
	}
	m.Set("gismo.generate_sharded_ns_per_event", ns, "ns")

	matNS, _, err := measure(reps, func() error {
		fx.Workload, err = gismo.GenerateSeeded(fx.Model, fx.Seed)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("gismo.materialize_ns_per_event", perItem(matNS, len(fx.Workload.Requests)), "ns")
	return nil
}
