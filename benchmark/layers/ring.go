package layers

import "repro/internal/ring"

// ProbeRing passes integers through one SPSC ring between two
// goroutines: the per-item cost of every pipeline seam.
func ProbeRing(fx *Fixture, m Metrics) error {
	n := fx.Sizes.RingItems
	ns, _, err := measure(fx.Sizes.ProbeReps, func() error {
		r := ring.NewSPSC[int](1024, ring.NewGate(), ring.NewGate())
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, ok := r.Pop(nil); !ok {
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			r.Push(i, nil)
		}
		r.Close()
		<-done
		return nil
	})
	if err != nil {
		return err
	}
	m.Set("ring.spsc_ns_per_item", perItem(ns, n), "ns")
	return nil
}
