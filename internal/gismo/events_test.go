package gismo

import (
	"math/rand"
	"testing"
)

func TestEventConfigValidate(t *testing.T) {
	if err := (&EventConfig{}).Validate(); err != nil {
		t.Errorf("zero config (disabled) should validate: %v", err)
	}
	if err := (&EventConfig{PerDay: -1}).Validate(); err == nil {
		t.Error("negative per-day: want error")
	}
	if err := (&EventConfig{PerDay: 2, MeanDuration: 0, Amplitude: 3}).Validate(); err == nil {
		t.Error("zero duration with events on: want error")
	}
	if err := (&EventConfig{PerDay: 2, MeanDuration: 100, Amplitude: 0}).Validate(); err == nil {
		t.Error("zero amplitude with events on: want error")
	}
	def := DefaultEvents()
	if err := def.Validate(); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}
}

func TestScheduleEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := EventConfig{PerDay: 4, MeanDuration: 1200, Amplitude: 2.5}
	horizon := int64(14 * 86400)
	s, err := ScheduleEvents(cfg, horizon, rng)
	if err != nil {
		t.Fatal(err)
	}
	// ~56 expected events; Poisson sd ~7.5.
	if len(s.Events) < 30 || len(s.Events) > 85 {
		t.Errorf("events = %d, want ~56", len(s.Events))
	}
	for i, e := range s.Events {
		if e.Start < 0 || e.End > horizon || e.End <= e.Start {
			t.Fatalf("bad event %+v", e)
		}
		if i > 0 && e.Start < s.Events[i-1].Start {
			t.Fatal("events not sorted")
		}
	}
	// Active fraction ~ 4 * 1200 / 86400 = 5.6%.
	frac := float64(s.ActiveSeconds()) / float64(horizon)
	if frac < 0.02 || frac > 0.12 {
		t.Errorf("active fraction = %v, want ~0.056", frac)
	}
}

func TestScheduleEventsDisabled(t *testing.T) {
	s, err := ScheduleEvents(EventConfig{}, 86400, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 0 || s.ActiveSeconds() != 0 {
		t.Error("disabled config produced events")
	}
	if s.Boost(1000) != 1 {
		t.Error("disabled schedule should not boost")
	}
}

func TestScheduleEventsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := ScheduleEvents(DefaultEvents(), 0, rng); err == nil {
		t.Error("zero horizon: want error")
	}
	if _, err := ScheduleEvents(EventConfig{PerDay: -1}, 86400, rng); err == nil {
		t.Error("bad config: want error")
	}
}

func TestBoostInsideAndOutsideEvents(t *testing.T) {
	s := &EventSchedule{
		Config: EventConfig{PerDay: 1, MeanDuration: 100, Amplitude: 4},
		Events: []Event{{Start: 1000, End: 1100}, {Start: 5000, End: 5200}},
	}
	cases := []struct {
		t    float64
		want float64
	}{
		{500, 1}, {1000, 4}, {1050, 4}, {1100, 1}, {3000, 1}, {5100, 4}, {9999, 1},
	}
	for _, c := range cases {
		if got := s.Boost(c.t); got != c.want {
			t.Errorf("Boost(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestBoostOverlappingEvents(t *testing.T) {
	s := &EventSchedule{
		Config: EventConfig{PerDay: 1, MeanDuration: 100, Amplitude: 3},
		Events: []Event{{Start: 100, End: 500}, {Start: 200, End: 300}},
	}
	// Overlap must not stack: still Amplitude.
	if got := s.Boost(250); got != 3 {
		t.Errorf("overlapping boost = %v, want 3", got)
	}
	// The long first event still covers past the short one's end.
	if got := s.Boost(400); got != 3 {
		t.Errorf("boost within long event = %v, want 3", got)
	}
}

func TestActiveSecondsUnion(t *testing.T) {
	s := &EventSchedule{Events: []Event{
		{Start: 0, End: 100},
		{Start: 50, End: 150}, // overlaps: union adds 50
		{Start: 300, End: 400},
	}}
	if got := s.ActiveSeconds(); got != 250 {
		t.Errorf("ActiveSeconds = %d, want 250", got)
	}
}

func TestEventsRaiseConcurrencyDuringBursts(t *testing.T) {
	// Compare request density inside versus outside event windows.
	m, err := Scaled(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.RampUpDays = 0
	m.DayVariability = 0
	m.Events = EventConfig{PerDay: 3, MeanDuration: 3600, Amplitude: 5}

	// Event windows are unknown from outside the generator, so measure
	// via the generated trace: the heavy upper tail of 15-minute arrival
	// counts relative to a no-events run.
	w, err := GenerateSeeded(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m
	m2.Events = EventConfig{}
	w2, err := GenerateSeeded(m2, 9)
	if err != nil {
		t.Fatal(err)
	}
	p99 := func(w *Workload) float64 {
		bins := make([]float64, m.Horizon/900+1)
		for _, r := range w.Requests {
			bins[r.Start/900]++
		}
		// Crude p99.
		max1, max2 := 0.0, 0.0
		for _, b := range bins {
			if b > max1 {
				max1, max2 = b, max1
			} else if b > max2 {
				max2 = b
			}
		}
		return (max1 + max2) / 2
	}
	burst, calm := p99(w), p99(w2)
	if burst <= calm*1.3 {
		t.Errorf("event bursts should raise peak bin counts: %v vs %v", burst, calm)
	}
	// Events modulate the session arrival process, so bound the volume
	// change on sessions: the request count additionally multiplies in
	// heavy-tailed per-session transfer draws whose realization noise at
	// this scale swamps any usable bound. This config's expected boost is
	// 1 + (1-e^(-PerDay·MeanDuration/86400))·(Amplitude-1) ≈ 1.47, with
	// ~±0.14 schedule-realization noise from only ~12 events, so cap the
	// ratio at 2x: catches runaway amplification with >3 sigma headroom.
	ratio := float64(w.SessionCount) / float64(w2.SessionCount)
	if ratio < 1.0 || ratio > 2.0 {
		t.Errorf("event session-volume ratio = %.3f (%d vs %d), want boosted but bounded",
			ratio, w.SessionCount, w2.SessionCount)
	}
}
