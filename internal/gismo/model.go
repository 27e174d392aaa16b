// Package gismo implements the live-streaming-media extension of the
// GISMO workload generator described in Section 6 of Veloso et al.
// (IMC 2002).
//
// GISMO (Jin & Bestavros, "GISMO: Generator of Streaming Media Objects
// and Workloads") originally synthesized workloads for stored media. The
// paper extends it with the two features live content requires:
//
//  1. Non-stationary client arrivals: a piecewise-stationary Poisson
//     process whose mean is keyed to the periodic (diurnal/weekly)
//     profile of Figure 4.
//  2. Clients as unique entities: each generated session is bound to a
//     client drawn from a Zipf "interest" profile (Figure 7 right),
//     reversing the classic object-popularity role of stored media.
//
// The generative model then follows Table 2 exactly: the number of
// transfers in a session is Zipf (Figure 13), the gaps between transfer
// starts inside a session are lognormal (Figure 14), and each transfer's
// length is lognormal (Figure 19).
package gismo

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/rate"
	"repro/internal/topology"
)

// ErrBadModel reports invalid model parameters.
var ErrBadModel = errors.New("gismo: bad model")

// LognormalParams is a JSON-friendly (μ, σ) pair.
type LognormalParams struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
}

// ZipfParams is a JSON-friendly (α, N) pair.
type ZipfParams struct {
	Alpha float64 `json:"alpha"`
	N     int     `json:"n"`
}

// Model is the full parameterization of the live-media workload
// generator: the subset of characterization variables the paper retains
// in Table 2, plus the scale knobs (population, horizon, objects).
type Model struct {
	// Horizon is the trace length in seconds. The paper's trace spans 28
	// days.
	Horizon int64 `json:"horizon_seconds"`
	// NumClients is the client population size (Table 1: 691,889 users).
	NumClients int `json:"num_clients"`
	// NumObjects is the number of live objects (Table 1: 2 feeds).
	NumObjects int `json:"num_objects"`

	// BaseArrivalRate scales the mean client (session) arrival rate, in
	// arrivals per second at profile multiplier 1 — "Mean Client Arrival
	// Rate f(t)" in Table 2.
	BaseArrivalRate float64 `json:"base_arrival_rate"`
	// PoissonWindow is the stationarity window of the piecewise Poisson
	// arrival process, in seconds (the paper uses 15 minutes).
	PoissonWindow float64 `json:"poisson_window_seconds"`

	// Interest is the client interest profile: sessions are assigned to
	// clients by Zipf rank (Table 2: α = 0.4704).
	Interest ZipfParams `json:"interest"`
	// TransfersPerSession is the Zipf law for the number of transfers in
	// a session (Table 2: α = 2.7042).
	TransfersPerSession ZipfParams `json:"transfers_per_session"`
	// IntraSessionGap is the lognormal law for the interarrival of
	// transfers within a session (Table 2: μ = 4.900, σ = 1.321).
	IntraSessionGap LognormalParams `json:"intra_session_gap"`
	// TransferLength is the lognormal law for individual transfer lengths
	// (Table 2: μ = 4.384, σ = 1.427).
	TransferLength LognormalParams `json:"transfer_length"`

	// FeedPreference is the probability that a transfer requests object
	// 0; remaining probability spreads uniformly over the other objects.
	FeedPreference float64 `json:"feed_preference"`

	// DayVariability is the sigma of a per-day lognormal multiplier on
	// the arrival rate, modeling the day-to-day audience swings visible
	// in Figure 4 (left): show events draw crowds, dull days empty the
	// site. Zero disables it. This variability is what produces the
	// mismatch between Figures 5 and 6 at large interarrivals that the
	// paper's footnote 6 attributes to diurnal-mean smoothing.
	DayVariability float64 `json:"day_variability"`

	// RampUpDays models the audience build-up at the start of the trace:
	// the show had just premiered, and the paper's Figures 4 and 18
	// (left) show the first days nearly empty, with mean transfer
	// interarrivals near 1,000 seconds. The arrival rate is multiplied by
	// an exponential ramp from RampUpFloor to 1 over this many days.
	// Zero disables the ramp. These sparse early windows are the source
	// of the shallow (alpha ~ 1) far tail of transfer interarrivals in
	// Figure 17.
	RampUpDays  float64 `json:"ramp_up_days"`
	RampUpFloor float64 `json:"ramp_up_floor"`

	// Events models in-show happenings that spike arrivals regardless of
	// the hour — the object-driven variability source of Section 3.2.
	// The zero value disables events.
	Events EventConfig `json:"events"`

	// Profile shapes the arrival rate over time. Nil means the reality-
	// show diurnal/weekly profile at BaseArrivalRate.
	Profile *rate.Profile `json:"-"`

	// Topology places clients into ASes/countries. Zero value means
	// topology.DefaultConfig.
	Topology topology.Config `json:"-"`
}

// Default returns the paper-calibrated model at full 28-day scale.
//
// BaseArrivalRate is calibrated so the 28-day trace yields on the order
// of 1.5 million sessions (Table 1): the reality-show profile has a mean
// multiplier of roughly 0.75, so 0.85 arrivals/second base gives
// ~0.64/s mean ≈ 1.55M sessions over 2.42M seconds.
func Default() Model {
	return Model{
		Horizon:             28 * 86400,
		NumClients:          691889,
		NumObjects:          2,
		BaseArrivalRate:     0.85,
		PoissonWindow:       900,
		Interest:            ZipfParams{Alpha: 0.4704, N: 691889},
		TransfersPerSession: ZipfParams{Alpha: 2.70417, N: 3000},
		IntraSessionGap:     LognormalParams{Mu: 4.89991, Sigma: 1.32074},
		TransferLength:      LognormalParams{Mu: 4.383921, Sigma: 1.427247},
		FeedPreference:      0.6,
		DayVariability:      0.35,
		Events:              DefaultEvents(),
		RampUpDays:          3,
		RampUpFloor:         0.01,
		Topology:            topology.DefaultConfig(),
	}
}

// Scaled returns the default model shrunk by the given factor on both the
// population and the arrival rate, with the horizon clamped to at least
// two days. factor = 1 reproduces the paper's scale; factor = 100 is a
// laptop-scale trace with the same distributional structure.
func Scaled(factor float64, horizonDays int) (Model, error) {
	if factor < 1 {
		return Model{}, fmt.Errorf("%w: scale factor %v < 1", ErrBadModel, factor)
	}
	if horizonDays < 1 {
		return Model{}, fmt.Errorf("%w: horizon %d days", ErrBadModel, horizonDays)
	}
	m := Default()
	m.Horizon = int64(horizonDays) * 86400
	m.NumClients = int(float64(m.NumClients) / factor)
	if m.NumClients < 10 {
		m.NumClients = 10
	}
	m.Interest.N = m.NumClients
	m.BaseArrivalRate /= factor
	// The premiere ramp is a feature of the full 28-day trace; on short
	// horizons it would swallow most of the trace, so cap it at a
	// quarter of the horizon.
	if quarter := float64(horizonDays) / 4; m.RampUpDays > quarter {
		m.RampUpDays = quarter
	}
	return m, nil
}

// finite reports whether x is a number: neither NaN nor ±Inf. JSON
// cannot carry either, but a fit on a degenerate trace can produce
// them, and the ordered comparisons below are all false on NaN.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// positive reports whether x is a finite number above zero.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// nonNegative reports whether x is a finite number, zero or above.
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate checks all parameters, including that the generator can
// hold the model: a population or topology the client rows cannot
// number, an object count or transfer count a session cursor's int32
// fields cannot, or a horizon whose starts a cursor's queue key cannot,
// is an error here, not a panic or a wrapped value when it is built.
func (m *Model) Validate() error {
	// A start must fit above the session in cursorKey, and the log
	// ingest refuses a trace of 2³¹ s or more: 68 years is horizon enough.
	if m.Horizon <= 0 || m.Horizon > math.MaxInt32 {
		return fmt.Errorf("%w: horizon %d, want 1..%d", ErrBadModel, m.Horizon, math.MaxInt32)
	}
	if m.NumClients < 1 || m.NumClients > MaxClients {
		return fmt.Errorf("%w: num_clients %d, want 1..%d", ErrBadModel, m.NumClients, MaxClients)
	}
	if m.NumObjects < 1 || m.NumObjects > math.MaxInt32 {
		return fmt.Errorf("%w: %d objects, want 1..%d", ErrBadModel, m.NumObjects, math.MaxInt32)
	}
	if !positive(m.BaseArrivalRate) {
		return fmt.Errorf("%w: base arrival rate %v", ErrBadModel, m.BaseArrivalRate)
	}
	if !positive(m.PoissonWindow) {
		return fmt.Errorf("%w: poisson window %v", ErrBadModel, m.PoissonWindow)
	}
	if !positive(m.Interest.Alpha) || m.Interest.N < 1 {
		return fmt.Errorf("%w: interest %+v", ErrBadModel, m.Interest)
	}
	if m.Interest.N > m.NumClients {
		return fmt.Errorf("%w: interest support %d exceeds population %d", ErrBadModel, m.Interest.N, m.NumClients)
	}
	if !positive(m.TransfersPerSession.Alpha) || m.TransfersPerSession.N < 1 || m.TransfersPerSession.N > math.MaxInt32 {
		return fmt.Errorf("%w: transfers per session %+v", ErrBadModel, m.TransfersPerSession)
	}
	if !positive(m.IntraSessionGap.Sigma) || !finite(m.IntraSessionGap.Mu) {
		return fmt.Errorf("%w: intra-session gap %+v", ErrBadModel, m.IntraSessionGap)
	}
	if !positive(m.TransferLength.Sigma) || !finite(m.TransferLength.Mu) {
		return fmt.Errorf("%w: transfer length %+v", ErrBadModel, m.TransferLength)
	}
	if !(m.FeedPreference >= 0 && m.FeedPreference <= 1) {
		return fmt.Errorf("%w: feed preference %v", ErrBadModel, m.FeedPreference)
	}
	if !nonNegative(m.DayVariability) {
		return fmt.Errorf("%w: day variability %v", ErrBadModel, m.DayVariability)
	}
	if !nonNegative(m.RampUpDays) {
		return fmt.Errorf("%w: ramp-up days %v", ErrBadModel, m.RampUpDays)
	}
	if !finite(m.RampUpFloor) || m.RampUpDays > 0 && (m.RampUpFloor <= 0 || m.RampUpFloor > 1) {
		return fmt.Errorf("%w: ramp-up floor %v", ErrBadModel, m.RampUpFloor)
	}
	if m.Topology.NumAS > topology.MaxAS {
		return fmt.Errorf("%w: topology of %d ASes, at most %d", ErrBadModel, m.Topology.NumAS, topology.MaxAS)
	}
	return m.Events.Validate()
}

// MarshalJSON includes the profile shape alongside the scalar parameters.
func (m Model) MarshalJSON() ([]byte, error) {
	aux := modelSpec{modelAlias: modelAlias(m)}
	if m.Profile != nil {
		aux.ProfileHourly = &m.Profile.Hourly
		aux.ProfileDaily = &m.Profile.Daily
	}
	return json.Marshal(aux)
}

// profile resolves the effective arrival profile.
func (m *Model) profile() (*rate.Profile, error) {
	if m.Profile != nil {
		return m.Profile, nil
	}
	return rate.RealityShow(m.BaseArrivalRate)
}

// gapSampler and lengthSampler resolve the lognormal laws.
func (m *Model) gapSampler() (dist.Lognormal, error) {
	return dist.NewLognormal(m.IntraSessionGap.Mu, m.IntraSessionGap.Sigma)
}

func (m *Model) lengthSampler() (dist.Lognormal, error) {
	return dist.NewLognormal(m.TransferLength.Mu, m.TransferLength.Sigma)
}
