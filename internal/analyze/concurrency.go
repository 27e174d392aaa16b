// Package analyze implements the paper's three-layer characterization
// pipeline (Sections 3–5): client-layer, session-layer and transfer-layer
// analyses over a sanitized trace, each producing the statistics and
// distribution fits behind Figures 2–20 and Tables 1–2.
package analyze

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/stats"
)

// ErrBadInput reports empty or inconsistent analysis input.
var ErrBadInput = errors.New("analyze: bad input")

// Interval is a half-open activity interval [Start, End) in trace seconds.
type Interval struct {
	Start, End int64
}

// ConcurrencyReport characterizes a level-of-concurrency process c(t):
// the number of simultaneously active intervals at each second. It backs
// Figures 3/4 (active clients) and 15/16 (active transfers), and — on
// demand, through ACF — Figure 8. It holds a sync.Once: use it through
// the pointer Concurrency returns.
type ConcurrencyReport struct {
	// Marginal is the distribution of c(t) sampled each second over the
	// trace (Figures 3 and 15).
	Marginal *stats.ECDF
	// Binned is the 15-minute mean of c(t) over the whole trace
	// (Figures 4 and 16, left).
	Binned stats.BinnedSeries
	// WeekFold and DayFold are the revolving weekly and daily views
	// (Figures 4 and 16, center and right).
	WeekFold stats.BinnedSeries
	DayFold  stats.BinnedSeries
	// Peak is the maximum concurrency observed.
	Peak int

	// minutes is the 1-minute mean of c(t), the series ACF correlates.
	minutes []float64
	acfOnce sync.Once
	acf     []float64
}

// ACF returns the autocorrelation of the minute-binned series at lags
// 0..MaxACFLagMinutes (Figure 8), or nil when it is undefined (a
// constant series, or a trace shorter than two minutes). Only a figure
// reads this series, so it is computed when the figure asks: once, on
// the first call; concurrent callers get the same slice and must treat
// it as read-only.
func (r *ConcurrencyReport) ACF() []float64 {
	r.acfOnce.Do(func() {
		maxLag := min(MaxACFLagMinutes, len(r.minutes)-1)
		if maxLag < 1 {
			return
		}
		// The one error left is a constant series: ACF undefined,
		// report none.
		r.acf, _ = stats.AutocorrelationFunction(r.minutes, maxLag)
	})
	return r.acf
}

const (
	// TemporalBin is the paper's 15-minute bin (900 s) for temporal plots.
	TemporalBin int64 = 900
	// ACFBin is the 1-minute bin used for the Figure 8 autocorrelation.
	ACFBin int64 = 60
	// MaxACFLagMinutes covers three daily peaks (Figure 8 plots to ~4000).
	MaxACFLagMinutes = 4000
)

// The 15-minute sums are sums of whole 1-minute sums. This fails to
// compile if TemporalBin stops being a multiple of ACFBin; the sweep
// would then have to accumulate each bin width directly.
const _ = uint64(-(TemporalBin % ACFBin))

// Concurrency computes the full concurrency report for a set of activity
// intervals over [0, horizon). Intervals outside the horizon are clipped.
// It costs O(n + horizon/60) time and memory for n intervals: the
// intervals are swept as events, never expanded per second.
func Concurrency(intervals []Interval, horizon int64) (*ConcurrencyReport, error) {
	ev, err := newEvents(len(intervals), horizon)
	if err != nil {
		return nil, err
	}
	if len(intervals) == 0 {
		return nil, fmt.Errorf("%w: no intervals", ErrBadInput)
	}
	for _, iv := range intervals {
		ev.add(iv.Start, iv.End)
	}
	return ev.report()
}

// events holds the activity intervals of one c(t) process as two int32
// columns: the second each interval that reaches into [0, horizon)
// starts in and the second it ends at, both clipped to the horizon.
// The layers fill it straight from their rows.
type events struct {
	horizon      int64
	starts, ends []int32
}

// newEvents makes room for n intervals. Event seconds are int32, so a
// horizon of 2³¹ seconds (68 years) or more is refused, never wrapped.
func newEvents(n int, horizon int64) (*events, error) {
	if horizon <= 0 || horizon > math.MaxInt32 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadInput, horizon)
	}
	return &events{horizon: horizon, starts: make([]int32, 0, n), ends: make([]int32, 0, n)}, nil
}

// add records the interval [start, end), clipped; one that misses the
// horizon altogether is dropped.
func (e *events) add(start, end int64) {
	if end <= start {
		end = start + 1 // zero-length activity still occupies its second
	}
	start, end = max(start, 0), min(end, e.horizon)
	if end <= start {
		return
	}
	e.starts = append(e.starts, int32(start))
	e.ends = append(e.ends, int32(end))
}

// report sweeps the events in time order. Between two consecutive event
// seconds c(t) holds one level L, so the segment [prev, t) is t − prev
// seconds of the marginal at L and L × overlap of every 1-minute sum it
// spans, and the peak is the highest L any segment held — the integers
// a per-second walk collects one second at a time. The columns are
// sorted in place.
//
//lsm:hotpath
func (e *events) report() (*ConcurrencyReport, error) {
	width := bits.Len64(uint64(e.horizon))
	stats.SortByKeyBits(e.starts, 0, width)
	stats.SortByKeyBits(e.ends, 0, width)
	starts, ends := e.starts, e.ends

	minuteSums := make([]int64, (e.horizon+ACFBin-1)/ACFBin)
	seconds := make([]int, 1, 64) // seconds[L]: for how long c(t) = L
	level := 0
	var prev int64
	for i, j := 0, 0; j < len(ends); {
		// The next event: every interval ends after it starts, so no
		// start is pending once the ends run out. Events of one second
		// pass with no time between them — only the level they leave
		// behind is ever held.
		var t int64
		step := -1
		if i < len(starts) && starts[i] <= ends[j] {
			t, step = int64(starts[i]), 1
			i++
		} else {
			t = int64(ends[j])
			j++
		}
		if t > prev {
			for level >= len(seconds) {
				seconds = append(seconds, 0)
			}
			seconds[level] += int(t - prev)
			if level > 0 {
				for m := prev / ACFBin; prev < t; m++ {
					next := min((m+1)*ACFBin, t)
					minuteSums[m] += int64(level) * (next - prev)
					prev = next
				}
			}
			prev = t
		}
		level += step
	}
	seconds[0] += int(e.horizon - prev) // nothing is active past the last end

	quarterSums := make([]int64, (e.horizon+TemporalBin-1)/TemporalBin)
	for m, sum := range minuteSums {
		quarterSums[m/int(TemporalBin/ACFBin)] += sum
	}
	binned := stats.BinnedSeries{Width: TemporalBin, Values: binMeans(quarterSums, TemporalBin, e.horizon)}

	// The weekly view needs at least one full week of data to be
	// meaningful; shorter traces skip it.
	weekFold := stats.BinnedSeries{Width: TemporalBin}
	var err error
	if e.horizon >= 7*86400 {
		weekFold, err = binned.FoldModulo(7 * 86400)
		if err != nil {
			weekFold = stats.BinnedSeries{Width: TemporalBin}
		}
	}
	dayFold, err := binned.FoldModulo(86400)
	if err != nil {
		return nil, err
	}
	return &ConcurrencyReport{
		Marginal: stats.NewECDFCounts(seconds),
		Binned:   binned,
		WeekFold: weekFold,
		DayFold:  dayFold,
		Peak:     len(seconds) - 1, // seconds grows only to a level that held
		minutes:  binMeans(minuteSums, ACFBin, e.horizon),
	}, nil
}

// binMeans divides each bin's sum of c(t) by the bin's length in
// seconds — the last bin may be cut short by the horizon. The sums are
// integers, hence exact in float64: the means are those of a per-second
// average whatever order the seconds were added in.
func binMeans(sums []int64, width, horizon int64) []float64 {
	means := make([]float64, len(sums))
	for b, sum := range sums {
		lo := int64(b) * width
		means[b] = float64(sum) / float64(min(lo+width, horizon)-lo)
	}
	return means
}
