package gismo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dist"
	"repro/internal/workload"
)

// Stored-media workload generation: GISMO's original mode, kept here as
// the contrast class for the paper's central claim.
//
// "Accesses to pre-recorded, stored media objects are user driven; they
// are directly influenced by user preferences — namely, what to access
// and when to do so. Accesses to live media are object driven."
// (Section 1.) The dualities that follow — Zipf *object popularity* for
// stored versus Zipf *client interest* for live, and transfer lengths
// rooted in object size versus client stickiness — are measurable only
// with both generators in hand. StoredModel is the stored side.

// StoredModel parameterizes a classic stored-media (clip library)
// workload.
type StoredModel struct {
	// Horizon is the trace length in seconds.
	Horizon int64 `json:"horizon_seconds"`
	// NumClients is the population size; clients are chosen uniformly
	// (no interest skew — stored access is driven by object choice).
	NumClients int `json:"num_clients"`
	// NumObjects is the clip-library size (hundreds to thousands, versus
	// the live workload's 2).
	NumObjects int `json:"num_objects"`
	// Popularity is the Zipf law of object popularity — the classic
	// result for stored media (Chesire et al., Breslau et al.).
	Popularity ZipfParams `json:"popularity"`
	// ObjectSize is the lognormal law of object durations in seconds.
	ObjectSize LognormalParams `json:"object_size"`
	// ArrivalRate is the request rate in requests/second (stationary:
	// stored access lacks the live feed's synchronizing schedule).
	ArrivalRate float64 `json:"arrival_rate"`
	// CompletionMean in (0, 1] is the mean fraction of an object a
	// viewer watches before stopping (Acharya & Smith observed ~half of
	// requests stop early).
	CompletionMean float64 `json:"completion_mean"`
}

// DefaultStored returns a stored-media model sized against the scaled
// live model it will be compared with.
func DefaultStored(horizonDays, numClients int, arrivalRate float64) StoredModel {
	return StoredModel{
		Horizon:        int64(horizonDays) * 86400,
		NumClients:     numClients,
		NumObjects:     1000,
		Popularity:     ZipfParams{Alpha: 0.8, N: 1000}, // Chesire et al.: Zipf-like object popularity
		ObjectSize:     LognormalParams{Mu: 5.0, Sigma: 1.2},
		ArrivalRate:    arrivalRate,
		CompletionMean: 0.55,
	}
}

// Validate checks the model.
func (m *StoredModel) Validate() error {
	if m.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %d", ErrBadModel, m.Horizon)
	}
	if m.NumClients < 1 || m.NumObjects < 1 {
		return fmt.Errorf("%w: %d clients / %d objects", ErrBadModel, m.NumClients, m.NumObjects)
	}
	if m.Popularity.Alpha <= 0 || m.Popularity.N < 1 || m.Popularity.N > m.NumObjects {
		return fmt.Errorf("%w: popularity %+v", ErrBadModel, m.Popularity)
	}
	if m.ObjectSize.Sigma <= 0 {
		return fmt.Errorf("%w: object size %+v", ErrBadModel, m.ObjectSize)
	}
	if m.ArrivalRate <= 0 {
		return fmt.Errorf("%w: arrival rate %v", ErrBadModel, m.ArrivalRate)
	}
	if m.CompletionMean <= 0 || m.CompletionMean > 1 {
		return fmt.Errorf("%w: completion mean %v", ErrBadModel, m.CompletionMean)
	}
	return nil
}

// StoredWorkload is the generated stored-media request stream.
type StoredWorkload struct {
	Model StoredModel
	// ObjectSeconds holds each object's full duration in seconds.
	ObjectSeconds []int64
	Requests      []workload.Event
}

// GenerateStored produces the stored-media workload: Poisson request
// arrivals; each request picks an object by Zipf popularity and a client
// uniformly; the transfer length is the object's size times a watched
// fraction — length is *size-driven*, the stored-media signature.
func GenerateStored(m StoredModel, rng *rand.Rand) (*StoredWorkload, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	size, err := dist.NewLognormal(m.ObjectSize.Mu, m.ObjectSize.Sigma)
	if err != nil {
		return nil, err
	}
	popularity, err := dist.NewZipf(m.Popularity.Alpha, m.Popularity.N)
	if err != nil {
		return nil, err
	}
	process, err := dist.NewPoissonProcess(m.ArrivalRate)
	if err != nil {
		return nil, err
	}

	w := &StoredWorkload{Model: m, ObjectSeconds: make([]int64, m.NumObjects)}
	for i := range w.ObjectSeconds {
		s := int64(size.Sample(rng))
		if s < 1 {
			s = 1
		}
		w.ObjectSeconds[i] = s
	}

	arrivals := process.ArrivalsIn(rng, 0, float64(m.Horizon), nil)
	w.Requests = make([]workload.Event, 0, len(arrivals))
	for _, at := range arrivals {
		obj := popularity.SampleRank(rng) - 1
		start := int64(at)
		// Watched fraction: Beta-ish via a simple power transform of a
		// uniform, calibrated to CompletionMean.
		frac := watchedFraction(m.CompletionMean, rng)
		d := int64(frac * float64(w.ObjectSeconds[obj]))
		if d < 1 {
			d = 1
		}
		if start+d > m.Horizon {
			d = m.Horizon - start
			if d < 1 {
				continue
			}
		}
		w.Requests = append(w.Requests, workload.Event{
			Client:   rng.Intn(m.NumClients),
			Object:   obj,
			Start:    start,
			Duration: d,
		})
	}
	sort.Slice(w.Requests, func(i, j int) bool { return w.Requests[i].Start < w.Requests[j].Start })
	return w, nil
}

// watchedFraction draws U^(1/m - 1)-style fractions with mean ~mean:
// for U uniform, E[U^k] = 1/(k+1), so k = 1/mean - 1 gives the target.
func watchedFraction(mean float64, rng *rand.Rand) float64 {
	if mean >= 1 {
		return 1
	}
	k := 1/mean - 1
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	f := math.Pow(u, k)
	if f > 1 {
		f = 1
	}
	return f
}
