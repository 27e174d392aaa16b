package gismo

import (
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/workload"
)

// Workload is a fully materialized synthetic workload: the client
// population plus the request stream in start order. It is the
// compatibility form of the event stream (NewStream) for consumers that
// need random access; scale-sensitive paths should consume the stream
// directly.
type Workload struct {
	Model      Model
	Population *Population
	// Requests are the generated transfers in stream order. Each keeps
	// its (Session, Seq) identity, which keys the simulator's draws, so
	// replaying them through Stream serves byte-identically to the live
	// event stream.
	Requests []workload.Event
	// SessionCount is the number of generated sessions (one per client
	// arrival).
	SessionCount int
}

// GenerateSeeded runs the Section 6 generative model:
//
//  1. Client arrivals are drawn from a piecewise-stationary Poisson
//     process modulated by the diurnal/weekly profile (Table 2 rows 1–2).
//  2. Each arrival is bound to a client by a Zipf interest draw
//     (Table 2 row 3).
//  3. The session's transfer count is a Zipf draw (row 4); the first
//     transfer starts at the session arrival instant, subsequent starts
//     are separated by lognormal gaps (row 5).
//  4. Each transfer's length is a lognormal draw (row 6), truncated at
//     the trace horizon.
//
// It is a thin wrapper that drains NewStreamSeeded into a slice: the
// result is identical to consuming the stream at any shard count.
func GenerateSeeded(m Model, seed int64) (*Workload, error) {
	ws, err := NewStreamSeeded(m, seed, DefaultShards())
	if err != nil {
		return nil, err
	}
	defer ws.Close()
	sessions, err := ws.Sessions()
	if err != nil {
		return nil, err
	}
	return &Workload{
		Model:        m,
		Population:   ws.Population(),
		Requests:     workload.Drain(ws, sessions*2),
		SessionCount: sessions,
	}, nil
}

// NewStreamSeeded is NewStream under the seed convention every command
// shares: the stream seed is the first Int63 of a
// rand.NewSource(seed) generator, so equal -seed values give the same
// workload in lsmgen, lsmload and GenerateSeeded.
func NewStreamSeeded(m Model, seed int64, shards int) (*WorkloadStream, error) {
	return NewStream(m, rand.New(rand.NewSource(seed)).Int63(), shards)
}

// Stream replays the materialized workload as an event stream, reading
// the request slice in place (no copy).
//
//lsm:keep -- simulate.Run, which only benchmark/layers/simulate.go and tests reach; ROADMAP item 4a deletes
func (w *Workload) Stream() workload.Stream {
	return workload.NewSliceStream(w.Requests)
}

// effectiveRate composes the periodic profile with the model's
// non-periodic structure: per-day lognormal audience variability
// (mean-one, so the expected session count is preserved), the premiere
// ramp-up of the first RampUpDays days, and in-show event bursts
// (Section 3.2's object-driven variability; with the default dose the
// bursts add ~8% to the mean rate).
func (m *Model) effectiveRate(base func(float64) float64, rng *rand.Rand) (func(float64) float64, error) {
	days := int(m.Horizon/86400) + 1
	factors := make([]float64, days)
	adjust := -0.5 * m.DayVariability * m.DayVariability
	for i := range factors {
		factors[i] = 1
		if m.DayVariability > 0 {
			factors[i] = math.Exp(m.DayVariability*rng.NormFloat64() + adjust)
		}
	}
	ramp := func(t float64) float64 { return 1 }
	if m.RampUpDays > 0 {
		// Exponential ramp: floor at t=0, 1 at t = RampUpDays.
		logFloor := math.Log(m.RampUpFloor)
		horizon := m.RampUpDays * 86400
		ramp = func(t float64) float64 {
			if t >= horizon {
				return 1
			}
			return math.Exp(logFloor * (1 - t/horizon))
		}
	}
	schedule, err := ScheduleEvents(m.Events, m.Horizon, rng)
	if err != nil {
		return nil, err
	}
	return func(t float64) float64 {
		d := int(t / 86400)
		f := 1.0
		if d >= 0 && d < len(factors) {
			f = factors[d]
		}
		return base(t) * f * ramp(t) * schedule.Boost(t)
	}, nil
}

// pickObject selects a live object: object 0 with probability
// FeedPreference, otherwise uniform over the rest.
func (m *Model) pickObject(rng *rand.Rand) int {
	if m.NumObjects == 1 {
		return 0
	}
	if rng.Float64() < m.FeedPreference {
		return 0
	}
	return 1 + rng.Intn(m.NumObjects-1)
}

// ExpectedSessions returns the expected number of sessions the arrival
// process produces over the model horizon.
func ExpectedSessions(m Model) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	profile, err := m.profile()
	if err != nil {
		return 0, err
	}
	pp, err := dist.NewPiecewisePoisson(profile.Rate, m.PoissonWindow)
	if err != nil {
		return 0, err
	}
	return pp.ExpectedCount(float64(m.Horizon)), nil
}
