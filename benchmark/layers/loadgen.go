package layers

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/workload"
)

// ProbeLoadgen replays the live sessions through loadgen.Replay on a
// back-to-back virtual schedule: one track per client slot, each
// transfer a 10 ms watch followed by 2 ms of slack. It measures the
// driver, not the server: a loadgen change should move no end-to-end
// metric.
func ProbeLoadgen(fx *Fixture, m Metrics) error {
	const (
		compression = 1000 // one trace second per wall millisecond
		watchSec    = int64(LiveWatch / time.Millisecond)
		stepSec     = watchSec + 2
	)
	clock := make([]int64, Clients())
	var events []workload.Event
	for _, s := range fx.Live {
		track := 0
		for k := range clock {
			if clock[k] < clock[track] {
				track = k
			}
		}
		for _, ev := range s.Events {
			ev.Start, ev.Duration = clock[track], watchSec
			clock[track] += stepSec
			events = append(events, ev)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Less(events[j]) })

	live, err := StartLive(fx.Dir + "/loadgen-probe.log")
	if err != nil {
		return err
	}
	defer live.Close()
	cfg := loadgen.DefaultConfig()
	cfg.Compression = compression
	cfg.MaxConns = Clients()
	cfg.MinWatch = LiveWatch
	res, err := loadgen.Replay(live.Server.Addr(), workload.NewSliceStream(events), cfg)
	if err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("loadgen probe: %d of %d transfers failed", res.Failed, res.Attempted)
	}
	m.Set("loadgen.start_p50_ms", res.StartLatencyP50, "ms")
	m.Set("loadgen.lag_max_ms", res.LagMax*1e3, "ms")
	m.Set("loadgen.failed", float64(res.Failed), "count")
	return nil
}
