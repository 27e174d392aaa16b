package gismo

import (
	"fmt"
	"math/rand"
	"sort"
)

// In-show event bursts.
//
// Section 3.2 attributes the "wide variability observed in the number of
// concurrently active clients" to three sources: diurnal effects on the
// content, diurnal effects on the population, and "specific activities
// occurring within the reality show". The first two are the rate
// profile; EventConfig models the third — the object-driven component
// that makes live access live: when something happens on camera, viewers
// flock in, regardless of the hour.
type EventConfig struct {
	// PerDay is the mean number of in-show events per day (Poisson).
	PerDay float64 `json:"per_day"`
	// MeanDuration is the mean event duration in seconds (exponential).
	MeanDuration float64 `json:"mean_duration_seconds"`
	// Amplitude is the multiplicative rate boost while an event runs
	// (e.g. 3.0 triples the arrival rate).
	Amplitude float64 `json:"amplitude"`
}

// DefaultEvents is a modest dose of drama: two events a day, half an
// hour each, tripling arrivals.
func DefaultEvents() EventConfig {
	return EventConfig{PerDay: 2, MeanDuration: 1800, Amplitude: 3}
}

// Validate checks the configuration; a zero PerDay disables events.
func (c *EventConfig) Validate() error {
	if !nonNegative(c.PerDay) {
		return fmt.Errorf("%w: events per day %v", ErrBadModel, c.PerDay)
	}
	if !finite(c.MeanDuration) || !finite(c.Amplitude) ||
		c.PerDay > 0 && (c.MeanDuration <= 0 || c.Amplitude <= 0) {
		return fmt.Errorf("%w: event duration %v / amplitude %v", ErrBadModel, c.MeanDuration, c.Amplitude)
	}
	return nil
}

// Event is one scheduled in-show happening.
type Event struct {
	Start, End int64
}

// EventSchedule is the burst timeline over a horizon.
type EventSchedule struct {
	Config EventConfig
	Events []Event // sorted by Start, possibly overlapping
}

// ScheduleEvents draws the event timeline: Poisson event starts at
// PerDay/86400 per second, each with an exponential duration.
func ScheduleEvents(cfg EventConfig, horizon int64, rng *rand.Rand) (*EventSchedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadModel, horizon)
	}
	s := &EventSchedule{Config: cfg}
	if cfg.PerDay == 0 {
		return s, nil
	}
	rate := cfg.PerDay / 86400
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if int64(t) >= horizon {
			break
		}
		d := int64(rng.ExpFloat64()*cfg.MeanDuration) + 1
		end := int64(t) + d
		if end > horizon {
			end = horizon
		}
		s.Events = append(s.Events, Event{Start: int64(t), End: end})
	}
	sort.Slice(s.Events, func(i, j int) bool { return s.Events[i].Start < s.Events[j].Start })
	return s, nil
}

// Boost returns the rate multiplier at time t: Amplitude if any event is
// running, 1 otherwise. Overlapping events do not stack (the show has
// one audience).
func (s *EventSchedule) Boost(t float64) float64 {
	ti := int64(t)
	// Events are sorted by start; binary-search the last start <= t and
	// scan back over potential overlaps. Event durations are short, so
	// the scan window is small in practice.
	i := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].Start > ti })
	for j := i - 1; j >= 0; j-- {
		e := s.Events[j]
		if e.End > ti {
			return s.Config.Amplitude
		}
		// Stop scanning once events end too early to overlap t: allow a
		// generous look-back bounded by 50 events.
		if i-j > 50 {
			break
		}
	}
	return 1
}

// ActiveSeconds returns the number of seconds covered by at least one
// event (union length).
func (s *EventSchedule) ActiveSeconds() int64 {
	var total int64
	var coverEnd int64 = -1
	for _, e := range s.Events {
		start := e.Start
		if start < coverEnd {
			start = coverEnd
		}
		if e.End > start {
			total += e.End - start
		}
		if e.End > coverEnd {
			coverEnd = e.End
		}
	}
	return total
}
