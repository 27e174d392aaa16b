package stats

import "fmt"

// Autocorrelation returns the sample autocorrelation of the series at the
// given lag (in series steps):
//
//	r(l) = Σ (x_t - m)(x_{t+l} - m) / Σ (x_t - m)²
//
// This is the estimator behind Figure 8 (autocorrelation of the number of
// active clients, showing daily peaks at lags that are multiples of 1,440
// minutes).
func Autocorrelation(series []float64, lag int) (float64, error) {
	if lag < 0 {
		return 0, fmt.Errorf("%w: negative lag %d", ErrBadArgument, lag)
	}
	if len(series) == 0 {
		return 0, ErrEmpty
	}
	if lag >= len(series) {
		return 0, fmt.Errorf("%w: lag %d >= series length %d", ErrBadArgument, lag, len(series))
	}
	m := Mean(series)
	var num, den float64
	for t := 0; t < len(series); t++ {
		d := series[t] - m
		den += d * d
	}
	if den == 0 {
		return 0, fmt.Errorf("%w: constant series has undefined autocorrelation", ErrBadArgument)
	}
	for t := 0; t+lag < len(series); t++ {
		num += (series[t] - m) * (series[t+lag] - m)
	}
	return num / den, nil
}

// AutocorrelationFunction evaluates Autocorrelation at every lag in
// 0..maxLag inclusive, returning a slice indexed by lag. The mean, the
// deviations and the denominator are computed once, and every lag's
// numerator is summed over the deviations in the order Autocorrelation
// sums it, so out[l] is bit-identical to Autocorrelation(series, l).
//
// Lags are taken four to a pass. One numerator is a chain of dependent
// additions, which the processor cannot overlap; four independent
// chains over the same deviations keep it busy and read them once.
func AutocorrelationFunction(series []float64, maxLag int) ([]float64, error) {
	if maxLag < 0 {
		return nil, fmt.Errorf("%w: negative maxLag %d", ErrBadArgument, maxLag)
	}
	if maxLag >= len(series) {
		return nil, fmt.Errorf("%w: maxLag %d >= series length %d", ErrBadArgument, maxLag, len(series))
	}
	m := Mean(series)
	dev := make([]float64, len(series))
	var den float64
	for t, x := range series {
		d := x - m
		dev[t] = d
		den += d * d
	}
	if den == 0 {
		return nil, fmt.Errorf("%w: constant series has undefined autocorrelation", ErrBadArgument)
	}
	out := make([]float64, maxLag+1)
	l := 0
	for ; l+3 <= maxLag; l += 4 {
		// Lag l+3 has the fewest terms; the shorter lags finish theirs
		// after the shared pass.
		shared := len(dev) - (l + 3)
		b0, b1, b2, b3 := dev[l:][:shared], dev[l+1:][:shared], dev[l+2:][:shared], dev[l+3:][:shared]
		var s0, s1, s2, s3 float64
		for t, d := range dev[:shared] {
			s0 += d * b0[t]
			s1 += d * b1[t]
			s2 += d * b2[t]
			s3 += d * b3[t]
		}
		out[l] = lagSum(dev, l, shared, s0) / den
		out[l+1] = lagSum(dev, l+1, shared, s1) / den
		out[l+2] = lagSum(dev, l+2, shared, s2) / den
		out[l+3] = s3 / den
	}
	for ; l <= maxLag; l++ {
		out[l] = lagSum(dev, l, 0, 0) / den
	}
	return out, nil
}

// lagSum adds the terms dev[t]·dev[t+lag], t >= from, to sum in
// increasing t.
func lagSum(dev []float64, lag, from int, sum float64) float64 {
	lagged := dev[lag:]
	for t := from; t < len(lagged); t++ {
		sum += dev[t] * lagged[t]
	}
	return sum
}

// LocalMaxima returns the indices of strict local maxima of the series that
// exceed the threshold, skipping index 0. It is used to verify the ACF's
// daily periodicity (peaks near multiples of 1,440 minutes).
func LocalMaxima(series []float64, threshold float64) []int {
	var out []int
	for i := 1; i+1 < len(series); i++ {
		if series[i] > threshold && series[i] > series[i-1] && series[i] >= series[i+1] {
			out = append(out, i)
		}
	}
	return out
}
