package layers

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// ProbeCluster times the redirector hop: sequential Lookups against a
// front-end with one registered node. The fleet is on no end-to-end
// path yet.
func ProbeCluster(fx *Fixture, m Metrics) error {
	red, err := cluster.ServeRedirector("127.0.0.1:0", cluster.DefaultRedirectorConfig())
	if err != nil {
		return err
	}
	defer red.Close()
	const node = "127.0.0.1:9" // advertised only; nothing dials it
	agent, err := cluster.StartAgent(red.Addr(), node, time.Second, nil)
	if err != nil {
		return err
	}
	defer agent.Close()
	// StartAgent registers from its own goroutine; the registry's
	// counter is the only signal that it has.
	for deadline := time.Now().Add(5 * time.Second); red.Registry().Registered() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster probe: the agent did not register within 5 s")
		}
	}

	lat := make([]time.Duration, 0, fx.Sizes.Lookups)
	for i := 0; i < fx.Sizes.Lookups; i++ {
		start := time.Now()
		got, err := cluster.Lookup(red.Addr(), fmt.Sprintf("player-%07d", i), "/live/feed1", time.Second)
		if err != nil {
			return err
		}
		if got != node {
			return fmt.Errorf("cluster probe: lookup returned %q, want %q", got, node)
		}
		lat = append(lat, time.Since(start))
	}
	m.Set("cluster.lookup_p50_us", Median(durationsUS(lat)), "us")
	m.Set("cluster.redirects", float64(red.Redirects()), "count")
	return nil
}
