// Package rate models the periodic (diurnal and weekly) arrival-rate
// profiles that modulate the piecewise-stationary Poisson client arrival
// process of Veloso et al. (IMC 2002), Section 3.4 and Figure 4.
//
// The paper observes that the number of active clients is strongly
// periodic: diurnal variation dominates (a deep trough from roughly 4am to
// 11am, a peak in the evening), with a weaker weekly effect (weekends
// slightly busier than weekdays). A Profile captures exactly that
// structure: a base rate shaped by a 24-hour multiplier curve and a 7-day
// multiplier curve.
package rate

import (
	"errors"
	"fmt"
	"math"
)

// Seconds per calendar unit.
const (
	SecondsPerHour = 3600
	SecondsPerDay  = 86400
	SecondsPerWeek = 7 * SecondsPerDay
)

// ErrBadProfile reports an invalid profile construction.
var ErrBadProfile = errors.New("rate: bad profile")

// Profile is a periodic arrival-rate function: Rate(t) is the
// instantaneous arrival rate (arrivals per second) at t seconds since
// trace start. Trace start is taken to be midnight on DayOffset
// (0 = Sunday), matching the paper's midnight log harvests.
type Profile struct {
	// Base is the overall scale, in arrivals per second, applied when both
	// multipliers are 1.
	Base float64
	// Hourly holds 24 non-negative multipliers, one per hour of day.
	Hourly [24]float64
	// Daily holds 7 non-negative multipliers, one per day of week
	// (0 = Sunday).
	Daily [7]float64
	// DayOffset rotates the week so that t=0 falls on this weekday
	// (0 = Sunday). The paper's trace begins on a Sunday (Figure 4 left
	// starts at "Sun").
	DayOffset int
}

// New validates and returns a Profile.
func New(base float64, hourly [24]float64, daily [7]float64, dayOffset int) (*Profile, error) {
	if base <= 0 || math.IsNaN(base) || math.IsInf(base, 0) {
		return nil, fmt.Errorf("%w: base rate %v", ErrBadProfile, base)
	}
	for i, h := range hourly {
		if h < 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			return nil, fmt.Errorf("%w: hourly[%d] = %v", ErrBadProfile, i, h)
		}
	}
	for i, d := range daily {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("%w: daily[%d] = %v", ErrBadProfile, i, d)
		}
	}
	if dayOffset < 0 || dayOffset > 6 {
		return nil, fmt.Errorf("%w: day offset %d", ErrBadProfile, dayOffset)
	}
	p := &Profile{Base: base, Hourly: hourly, Daily: daily, DayOffset: dayOffset}
	return p, nil
}

// Rate returns the instantaneous arrival rate at t seconds since trace
// start. Negative times are clamped to 0.
func (p *Profile) Rate(t float64) float64 {
	if t < 0 {
		t = 0
	}
	sec := int64(t)
	secOfDay := sec % SecondsPerDay
	hour := int(secOfDay / SecondsPerHour)
	day := int((sec/SecondsPerDay + int64(p.DayOffset)) % 7)
	// Smooth the hourly curve by linear interpolation between hour
	// midpoints so the rate has no artificial discontinuities at hour
	// boundaries.
	frac := float64(secOfDay%SecondsPerHour)/SecondsPerHour - 0.5
	h0 := hour
	h1 := hour
	w := 0.0
	if frac >= 0 {
		h1 = (hour + 1) % 24
		w = frac
	} else {
		h1 = (hour + 23) % 24
		w = -frac
	}
	hourly := p.Hourly[h0]*(1-w) + p.Hourly[h1]*w
	return p.Base * hourly * p.Daily[day]
}

// MeanRate integrates Rate over [0, horizon) seconds (by 60-second
// midpoint quadrature, exact enough for piecewise-linear profiles) and
// returns the average arrival rate.
func (p *Profile) MeanRate(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	const step = 60.0
	var sum float64
	var n int
	for t := step / 2; t < horizon; t += step {
		sum += p.Rate(t)
		n++
	}
	if n == 0 {
		return p.Rate(horizon / 2)
	}
	return sum / float64(n)
}

// ExpectedArrivals returns the expected number of arrivals in
// [0, horizon) seconds.
func (p *Profile) ExpectedArrivals(horizon float64) float64 {
	return p.MeanRate(horizon) * horizon
}
