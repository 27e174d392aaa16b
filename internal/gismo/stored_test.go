package gismo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/stats"
)

func testStored() StoredModel {
	return DefaultStored(2, 1000, 0.05)
}

func TestStoredModelValidate(t *testing.T) {
	good := testStored()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*StoredModel){
		func(m *StoredModel) { m.Horizon = 0 },
		func(m *StoredModel) { m.NumClients = 0 },
		func(m *StoredModel) { m.NumObjects = 0 },
		func(m *StoredModel) { m.Popularity.Alpha = 0 },
		func(m *StoredModel) { m.Popularity.N = m.NumObjects + 1 },
		func(m *StoredModel) { m.ObjectSize.Sigma = 0 },
		func(m *StoredModel) { m.ArrivalRate = 0 },
		func(m *StoredModel) { m.CompletionMean = 0 },
		func(m *StoredModel) { m.CompletionMean = 1.5 },
	}
	for i, mutate := range mutations {
		m := testStored()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestGenerateStoredBasicShape(t *testing.T) {
	m := testStored()
	w, err := GenerateStored(m, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// ~0.05/s over 2 days = ~8,640 requests.
	if len(w.Requests) < 7000 || len(w.Requests) > 10500 {
		t.Fatalf("requests = %d", len(w.Requests))
	}
	for i, r := range w.Requests {
		if i > 0 && r.Start < w.Requests[i-1].Start {
			t.Fatal("not sorted")
		}
		if r.Object < 0 || r.Object >= m.NumObjects {
			t.Fatal("bad object")
		}
		if r.Duration < 1 || r.Duration > w.ObjectSeconds[r.Object] {
			t.Fatalf("duration %d exceeds object size %d", r.Duration, w.ObjectSeconds[r.Object])
		}
		if r.End() > m.Horizon {
			t.Fatal("escapes horizon")
		}
	}
}

func TestStoredObjectPopularityIsZipf(t *testing.T) {
	m := testStored()
	m.ArrivalRate = 0.3 // more samples for a stable fit
	w, err := GenerateStored(m, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, m.NumObjects)
	for _, r := range w.Requests {
		counts[r.Object]++
	}
	fit, err := dist.FitZipfCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-m.Popularity.Alpha) > 0.25 {
		t.Errorf("object popularity alpha = %v, want ~%v", fit.Alpha, m.Popularity.Alpha)
	}
}

func TestStoredDuality(t *testing.T) {
	// The paper's central claim, measured: for STORED media the transfer
	// length correlates with object size; for LIVE media it does not
	// correlate with anything structural about the (single) object.
	m := testStored()
	m.ArrivalRate = 0.2
	w, err := GenerateStored(m, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]float64, len(w.Requests))
	sizes := make([]float64, len(w.Requests))
	for i, r := range w.Requests {
		lengths[i] = float64(r.Duration)
		sizes[i] = float64(w.ObjectSeconds[r.Object])
	}
	r, err := stats.SpearmanCorrelation(lengths, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.5 {
		t.Errorf("stored length/size correlation = %v, want strong (size-driven lengths)", r)
	}

	// Live side: lengths are drawn independently of any object property.
	live, err := Scaled(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := GenerateSeeded(live, 4)
	if err != nil {
		t.Fatal(err)
	}
	liveLen := make([]float64, len(lw.Requests))
	liveObj := make([]float64, len(lw.Requests))
	for i, r := range lw.Requests {
		liveLen[i] = float64(r.Duration)
		liveObj[i] = float64(r.Object)
	}
	lr, err := stats.SpearmanCorrelation(liveLen, liveObj)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lr) > 0.1 {
		t.Errorf("live length/object correlation = %v, want ~0 (stickiness-driven lengths)", lr)
	}
}

func TestStoredCompletionMean(t *testing.T) {
	m := testStored()
	m.CompletionMean = 0.55
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += watchedFraction(m.CompletionMean, rng)
	}
	got := sum / n
	if math.Abs(got-0.55) > 0.02 {
		t.Errorf("mean watched fraction = %v, want ~0.55", got)
	}
	if f := watchedFraction(1, rng); f != 1 {
		t.Errorf("mean=1 should always watch fully, got %v", f)
	}
}

func TestGenerateStoredRejectsInvalid(t *testing.T) {
	m := testStored()
	m.ArrivalRate = -1
	if _, err := GenerateStored(m, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid model accepted")
	}
}
