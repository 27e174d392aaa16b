package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf is the ranked discrete power law over {1, …, N}:
// P[rank = k] ∝ k^(-Alpha). It is the paper's law for client interest
// (Table 2 row 3, Figure 7) and transfers per session (row 4,
// Figure 13), and GISMO's law for stored-object popularity.
type Zipf struct {
	Alpha float64
	N     int
	// cum[k-1] is the cumulative unnormalized weight of ranks 1..k.
	cum []float64
	// guide[j] is where RankOfU starts looking for a u in the j-th of
	// len(guide) equal slices of [0, Total()): the first index whose
	// cum reaches the slice's lower edge. With one bucket per
	// zipfGuideStride ranks a draw scans N/len(guide)/2 entries on
	// average whatever the law's shape.
	guide []uint32
	// perU maps u to its bucket: len(guide) / Total().
	perU float64
}

// zipfGuideStride is the number of ranks per guide bucket: the average
// scan then covers one 64-byte line of cum and the guide itself
// (N/4 bytes) stays cache-resident next to the generator's working
// set. Measured in place at N = 345,944 (EXPERIMENTS.md PR 16): a
// bucket per rank costs a second cache miss per draw, strides past 16
// gain nothing.
const zipfGuideStride = 16

// NewZipf builds the sampler. The cumulative and guide tables cost O(N)
// once; each draw is then a table lookup and a short local scan.
func NewZipf(alpha float64, n int) (*Zipf, error) {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("%w: zipf alpha %v", ErrBadParam, alpha)
	}
	if n < 1 || uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: zipf n %d", ErrBadParam, n)
	}
	cum := make([]float64, n)
	var total float64
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -alpha)
		cum[k-1] = total
	}
	guide := make([]uint32, (n+zipfGuideStride-1)/zipfGuideStride)
	width := total / float64(len(guide))
	i := 0
	for j := range guide {
		edge := float64(j) * width
		for i < n-1 && cum[i] < edge {
			i++
		}
		guide[j] = uint32(i)
	}
	return &Zipf{Alpha: alpha, N: n, cum: cum, guide: guide, perU: float64(len(guide)) / total}, nil
}

// SampleRank draws a rank in [1, N] by inverting the cumulative table.
func (z *Zipf) SampleRank(rng *rand.Rand) int {
	return z.RankOfU(rng.Float64() * z.Total())
}

// Total returns the total unnormalized weight (the scale of RankOfU's
// domain).
func (z *Zipf) Total() float64 { return z.cum[len(z.cum)-1] }

// RankOfU inverts the cumulative table for a pre-drawn variate
// u ∈ [0, Total()). Splitting the draw from the inversion lets callers
// derive u from a counter-mode RNG (sharded generation binds sessions to
// clients by u-band, so ownership is O(1) and only the owner pays the
// inversion).
//
// The result is the first index with cum >= u — exactly what a binary
// search for u over the whole table returns (and for u outside the
// domain too). The guide table only picks where to look: bucket j's
// entry and the next bracket the answer, a bracket wider than a stride
// (the flat tail of a steep law) is bisected down to one, and from
// wherever that leaves i the first loop walks up while cum[i] is still
// short of u and the second walks down while the entry below already
// reaches it. cum is non-decreasing, so they stop at that first index
// whatever the start was: a wrong or rounded guide entry costs steps,
// never the answer.
//
//lsm:hotpath
func (z *Zipf) RankOfU(u float64) int {
	j := 0
	if b := u * z.perU; b >= 1 { // false for u <= 0 and NaN: bucket 0
		j = len(z.guide) - 1
		if b < float64(j) {
			j = int(b)
		}
	}
	i, hi := int(z.guide[j]), z.N
	if j+1 < len(z.guide) {
		hi = int(z.guide[j+1])
	}
	for hi-i > zipfGuideStride {
		mid := int(uint(i+hi) >> 1)
		if z.cum[mid] >= u {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	for i < z.N && !(z.cum[i] >= u) { // the binary search's predicate, negated
		i++
	}
	for i > 0 && z.cum[i-1] >= u {
		i--
	}
	// u == cum[i] has probability zero, and u < Total() guarantees i < N.
	if i >= z.N {
		i = z.N - 1
	}
	return i + 1
}

// PMF returns P[rank = k], or 0 outside [1, N].
//
//lsm:keep -- test oracle: fit_test.go and sample_test.go hold the fit and the sampler to it
func (z *Zipf) PMF(k int) float64 {
	if k < 1 || k > z.N {
		return 0
	}
	p := math.Pow(float64(k), -z.Alpha) / z.cum[len(z.cum)-1]
	return p
}

// CDF returns P[rank <= k] treating the rank as a real-valued threshold,
// so it can feed the one-sample KS machinery.
//
//lsm:keep -- sample_test.go checks it against PMF
func (z *Zipf) CDF(x float64) float64 {
	k := int(math.Floor(x))
	if k < 1 {
		return 0
	}
	if k >= z.N {
		return 1
	}
	return z.cum[k-1] / z.cum[len(z.cum)-1]
}

// String renders the law.
func (z *Zipf) String() string {
	return fmt.Sprintf("zipf(alpha=%.4f, n=%d)", z.Alpha, z.N)
}
