package dist

import (
	"fmt"
	"math"
)

// Alias draws indices from an arbitrary discrete weight vector in O(1)
// per draw using Walker–Vose alias tables. The topology layer uses it
// for country and AS placement (Figure 2's skewed shares).
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds the table. Weights must be non-negative, finite, and
// sum to a positive total; they need not be normalized.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("%w: alias table with no weights", ErrBadParam)
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: alias weight[%d] = %v", ErrBadParam, i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: alias weights sum to %v", ErrBadParam, total)
	}

	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	// Scale weights to mean 1, then split into under/over-full columns.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are exactly-full columns.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// Len returns the number of categories.
func (a *Alias) Len() int { return len(a.prob) }
