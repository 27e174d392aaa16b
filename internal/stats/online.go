package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Online (single-pass) counterparts of the batch estimators, so the
// measurement layer can ride the event stream without materializing
// samples. Accuracy relative to the batch estimators is recorded in
// EXPERIMENTS.md: moments and binned series are exact; quantiles and
// distinct counts are approximate with the bounds documented on each
// type.

// Welford accumulates count, mean, variance and extrema of a sample in
// O(1) state using Welford's algorithm. Mean and variance are exact (up
// to floating point) — they match Summarize on the same data.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add absorbs one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 when empty).
//
//lsm:keep -- online_test.go checks it against Summarize; OnlineLayer.Snapshot reads it
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	v := w.m2 / float64(w.n)
	if v < 0 {
		return 0
	}
	return v
}

// Stddev returns the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) } //lsm:keep -- OnlineLayer.Snapshot; ROADMAP item 4 deletes

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min } //lsm:keep -- online_test.go checks it against Summarize

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// OnlineBins is the streaming form of BinCounts: fixed-width time bins
// over [0, horizon), accumulated one timestamp at a time. Exact — the
// resulting series equals BinCounts on the same timestamps.
type OnlineBins struct {
	horizon, width int64
	values         []float64
}

// NewOnlineBins allocates the bins.
func NewOnlineBins(horizon, width int64) (*OnlineBins, error) {
	if width <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon=%d width=%d", ErrBadArgument, horizon, width)
	}
	return &OnlineBins{horizon: horizon, width: width, values: make([]float64, numBins(horizon, width))}, nil
}

// Add counts one event at timestamp t (seconds since trace start);
// timestamps outside the horizon are ignored, as in BinCounts.
func (b *OnlineBins) Add(t int64) {
	if t < 0 || t >= b.horizon {
		return
	}
	b.values[t/b.width]++
}

// Series returns the accumulated series (shared backing array).
func (b *OnlineBins) Series() BinnedSeries {
	return BinnedSeries{Width: b.width, Values: b.values}
}

// LogQuantile approximates the quantiles of a positive sample with a
// geometric-bucket histogram: buckets per decade are fixed, so the
// relative error of any quantile is bounded by the bucket width —
// 32 buckets/decade gives ≤ ~3.7% relative error (half a bucket),
// independent of sample size, in O(buckets) state. Values below 1 are
// clamped into the first bucket (the paper's ⌊t+1⌋ display convention
// makes 1 the natural floor for timing data).
type LogQuantile struct {
	counts [logQuantilePerDecade*logQuantileDecades + 1]int64
	total  int64
}

const (
	// logQuantilePerDecade is the sketch's buckets per decade.
	logQuantilePerDecade = 32
	// logQuantileDecades spans [1, 10^8) — transfer durations, gaps and
	// bandwidths all fit well inside.
	logQuantileDecades = 8
)

// NewLogQuantile builds an empty sketch.
func NewLogQuantile() *LogQuantile {
	return &LogQuantile{}
}

// Add absorbs one observation.
func (q *LogQuantile) Add(x float64) {
	i := 0
	if x > 1 {
		i = int(math.Log10(x) * logQuantilePerDecade)
		if i < 0 {
			i = 0
		}
		if i >= len(q.counts) {
			i = len(q.counts) - 1
		}
	}
	q.counts[i]++
	q.total++
}

// N returns the observation count.
func (q *LogQuantile) N() int64 { return q.total }

// Quantile returns the approximate p-quantile (geometric bucket
// midpoint). p outside [0, 1] is clamped.
func (q *LogQuantile) Quantile(p float64) float64 {
	if q.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(p * float64(q.total-1))
	var cum int64
	for i, c := range q.counts {
		cum += c
		if cum > target {
			// Geometric midpoint of bucket i.
			return math.Pow(10, (float64(i)+0.5)/logQuantilePerDecade)
		}
	}
	return math.Pow(10, float64(logQuantileDecades))
}

// HyperLogLog estimates the number of distinct 64-bit keys in O(2^p)
// bytes. With precision p=14 (16 KiB of registers) the standard error
// is 1.04/√2^14 ≈ 0.8%. It replaces the exact distinct-count sets
// (clients, IPs) on the streaming measurement path, where an exact set
// over the paper's 691,889-client population would cost tens of MB.
type HyperLogLog struct {
	registers []uint8
	p         uint8
}

// NewHyperLogLog builds an estimator with 2^p registers, 4 ≤ p ≤ 18.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func NewHyperLogLog(p uint8) (*HyperLogLog, error) {
	if p < 4 || p > 18 {
		return nil, fmt.Errorf("%w: hyperloglog precision %d", ErrBadArgument, p)
	}
	return &HyperLogLog{registers: make([]uint8, 1<<p), p: p}, nil
}

// AddHash absorbs one hashed key. A splitmix64 finalizer is applied
// first, so weakly-avalanched hashes (FNV-1a over short keys leaves the
// high bits badly distributed) are safe to feed directly.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func (h *HyperLogLog) AddHash(x uint64) {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // guard bit bounds the rank
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// AddInt absorbs an integer key, hashed by FNV-1a 64.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func (h *HyperLogLog) AddInt(v int64) {
	x := uint64(14695981039346656037) // over v's bytes, least significant first
	for i := 0; i < 8; i++ {
		x ^= uint64(byte(v >> (8 * i)))
		x *= 1099511628211
	}
	h.AddHash(x)
}

// Count returns the cardinality estimate, with the standard small-range
// (linear counting) correction.
//
//lsm:keep -- OnlineLayer.Snapshot and online_test.go; ROADMAP item 4 deletes
func (h *HyperLogLog) Count() float64 {
	m := float64(len(h.registers))
	var sum float64
	var zeros int
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}
