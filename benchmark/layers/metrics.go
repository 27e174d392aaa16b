package layers

import (
	"runtime"
	"sort"
	"time"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps a metric name (layer.metric) to its value.
type Metrics map[string]Metric

// Set records one metric.
func (m Metrics) Set(name string, value float64, unit string) {
	m[name] = Metric{Value: value, Unit: unit}
}

// Sizes fixes how much work the workloads and probes do. The rep
// fields are zero in Full: there the end-to-end workloads run for the
// -seconds budget instead of a fixed count.
type Sizes struct {
	Days                           int
	GenScale, CharScale, TwinScale float64
	ProbeScale                     float64 // layer-probe fixture
	ProbeReps                      int     // each probe reports the median of this many runs
	Reps                           int     // fixed timed reps per workload (0 = run for -seconds)
	LiveScale                      float64 // model the live session shapes are drawn from
	LiveDays                       int
	LiveEvents                     int // stream prefix grouped into sessions
	LiveRound                      int // transfers per round (one rep)
	LiveProbe                      int // transfers in the liveserver/loadgen probes
	RingItems                      int
	Lookups                        int
}

// Full is the benchmark proper, sized for a 2-core box and a 20 s run.
var Full = Sizes{
	Days: 28, GenScale: 2, CharScale: 10, TwinScale: 20,
	ProbeScale: 20, ProbeReps: 3,
	LiveScale: 30, LiveDays: 7, LiveEvents: 6600, LiveRound: 600, LiveProbe: 400,
	RingItems: 1 << 20, Lookups: 1000,
}

// Smoke is the tier-1 smoke size: every code path, seconds in all.
var Smoke = Sizes{
	Days: 3, GenScale: 400, CharScale: 400, TwinScale: 400,
	ProbeScale: 400, ProbeReps: 1, Reps: 2,
	LiveScale: 400, LiveDays: 3, LiveEvents: 60, LiveRound: 10, LiveProbe: 10,
	RingItems: 1 << 12, Lookups: 20,
}

// LiveWatch is how long a live client watches each transfer, and
// LiveFrameInterval the server's frame pacing during it.
const (
	LiveWatch         = 10 * time.Millisecond
	LiveFrameInterval = 2 * time.Millisecond
)

// Clients is the connection and driver-goroutine budget C: the load
// generator shares the box with the server, so it never runs more
// clients than cores, capped at four.
func Clients() int {
	return min(runtime.NumCPU(), 4)
}

// Quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// measure runs f reps times and returns the median wall time in
// nanoseconds and the median heap-allocation count of one run.
func measure(reps int, f func() error) (ns, mallocs float64, err error) {
	return measurePrepared(reps, nil, f)
}

// measurePrepared is measure with an untimed prep step before each run.
func measurePrepared(reps int, prep, f func() error) (ns, mallocs float64, err error) {
	var walls, allocs []float64
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		walls = append(walls, float64(time.Since(start).Nanoseconds()))
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return Median(walls), Median(allocs), nil
}

func durationsUS(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return xs
}
