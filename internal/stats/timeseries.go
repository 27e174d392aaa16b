package stats

import (
	"fmt"
	"sort"
)

// BinnedSeries is a time series of values aggregated into fixed-width bins
// over [0, horizon). The paper uses 900-second (15-minute) bins for the
// temporal panels of Figures 4, 16 and 18 and 60-second bins for the
// autocorrelation of Figure 8.
type BinnedSeries struct {
	Width  int64     // bin width in seconds
	Values []float64 // one aggregate per bin
}

// numBins computes ceil(horizon/width).
func numBins(horizon, width int64) int {
	return int((horizon + width - 1) / width)
}

// BinCounts buckets event timestamps (seconds since trace start) into
// fixed-width bins and returns per-bin counts. Timestamps outside
// [0, horizon) are ignored.
//
//lsm:keep -- benchmark/layers/core.go probe; ROADMAP item 4 deletes
func BinCounts(timestamps []int64, horizon, width int64) (BinnedSeries, error) {
	if width <= 0 || horizon <= 0 {
		return BinnedSeries{}, fmt.Errorf("%w: horizon=%d width=%d", ErrBadArgument, horizon, width)
	}
	values := make([]float64, numBins(horizon, width))
	for _, t := range timestamps {
		if t < 0 || t >= horizon {
			continue
		}
		values[t/width]++
	}
	return BinnedSeries{Width: width, Values: values}, nil
}

// MeanBins buckets (timestamp, value) samples one at a time into
// fixed-width bins over [0, horizon), each summing its values in the
// order they arrive; Series returns the per-bin means. It backs
// Figure 18 (mean transfer interarrival per 15-minute bin).
type MeanBins struct {
	horizon, width int64
	sums           []float64
	counts         []int
}

// NewMeanBins allocates the bins.
func NewMeanBins(horizon, width int64) (*MeanBins, error) {
	if width <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon=%d width=%d", ErrBadArgument, horizon, width)
	}
	n := numBins(horizon, width)
	return &MeanBins{horizon: horizon, width: width, sums: make([]float64, n), counts: make([]int, n)}, nil
}

// Add puts value v in the bin of timestamp t (seconds since trace
// start); a timestamp outside [0, horizon) is ignored.
func (b *MeanBins) Add(t int64, v float64) {
	if t < 0 || t >= b.horizon {
		return
	}
	i := t / b.width
	b.sums[i] += v
	b.counts[i]++
}

// Series turns the sums into means — empty bins hold 0 — and returns
// them. Call it once, after the last Add.
func (b *MeanBins) Series() BinnedSeries {
	for i, c := range b.counts {
		if c > 0 {
			b.sums[i] /= float64(c)
		}
	}
	return BinnedSeries{Width: b.width, Values: b.sums}
}

// FoldModulo folds the series onto a revolving period of the given length
// in seconds (86,400 for mod-day, 604,800 for mod-week), averaging the
// bins that land on the same phase. Produces the paper's
// "Time (modulo one week)" and "Time (modulo 24 hours)" panels.
func (b BinnedSeries) FoldModulo(period int64) (BinnedSeries, error) {
	if period <= 0 || b.Width <= 0 {
		return BinnedSeries{}, fmt.Errorf("%w: period=%d width=%d", ErrBadArgument, period, b.Width)
	}
	if period%b.Width != 0 {
		return BinnedSeries{}, fmt.Errorf("%w: period %d not a multiple of bin width %d", ErrBadArgument, period, b.Width)
	}
	phases := int(period / b.Width)
	sums := make([]float64, phases)
	counts := make([]int, phases)
	for i, v := range b.Values {
		p := i % phases
		sums[p] += v
		counts[p]++
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return BinnedSeries{Width: b.Width, Values: sums}, nil
}

// Max returns the maximum value in the series (0 for an empty series).
func (b BinnedSeries) Max() float64 {
	var m float64
	for _, v := range b.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Points renders the series as (bin start second, value) pairs for
// plotting.
func (b BinnedSeries) Points() []Point {
	out := make([]Point, len(b.Values))
	for i, v := range b.Values {
		out[i] = Point{X: float64(int64(i) * b.Width), Y: v}
	}
	return out
}

// RankFrequencies converts raw per-entity counts into a descending
// relative-frequency vector: element k-1 is the share of the total held by
// the rank-k entity. It backs the rank–frequency panels of Figures 2 and 7.
func RankFrequencies(counts []int) []float64 {
	pos := make([]float64, 0, len(counts))
	var total float64
	for _, c := range counts {
		if c > 0 {
			pos = append(pos, float64(c))
			total += float64(c)
		}
	}
	if total == 0 {
		return nil
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(pos)))
	for i := range pos {
		pos[i] /= total
	}
	return pos
}
