package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10_000)
	var w Welford
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*1.4 + 4.4) // lognormal, heavy tail
		w.Add(xs[i])
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != s.N {
		t.Errorf("n: %d vs %d", w.N(), s.N)
	}
	if math.Abs(w.Mean()-s.Mean) > 1e-9*s.Mean {
		t.Errorf("mean: %v vs %v", w.Mean(), s.Mean)
	}
	if math.Abs(w.Variance()-s.Variance) > 1e-6*s.Variance {
		t.Errorf("variance: %v vs %v", w.Variance(), s.Variance)
	}
	if w.Min() != s.Min || w.Max() != s.Max {
		t.Errorf("extrema: [%v, %v] vs [%v, %v]", w.Min(), w.Max(), s.Min, s.Max)
	}
}

// TestOnlineBinsMatchesBinCounts: on a horizon of whole bins and on
// one that cuts its last bin short — where a timestamp past the
// horizon still has a bin to land in, and must not.
func TestOnlineBinsMatchesBinCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const width = 900
	for _, horizon := range []int{86_400, 86_000} {
		ts := make([]int64, 20_000)
		ob, err := NewOnlineBins(int64(horizon), width)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			ts[i] = int64(rng.Intn(horizon + 500)) // some beyond horizon
			ob.Add(ts[i])
		}
		batch, err := BinCounts(ts, int64(horizon), width)
		if err != nil {
			t.Fatal(err)
		}
		got := ob.Series()
		if len(got.Values) != len(batch.Values) {
			t.Fatalf("horizon %d: bins: %d vs %d", horizon, len(got.Values), len(batch.Values))
		}
		for i := range got.Values {
			if got.Values[i] != batch.Values[i] {
				t.Fatalf("horizon %d: bin %d: %v vs %v", horizon, i, got.Values[i], batch.Values[i])
			}
		}
	}
	if _, err := NewOnlineBins(0, 900); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestLogQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := NewLogQuantile()
	xs := make([]float64, 50_000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*1.43 + 4.38) // Figure 19's law
		q.Add(xs[i])
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		exact, err := Quantile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		got := q.Quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > 0.05 {
			t.Errorf("p=%v: approx %v vs exact %v (rel err %.3f > 0.05)", p, got, exact, rel)
		}
	}
	if q.N() != int64(len(xs)) {
		t.Errorf("n = %d", q.N())
	}
}

func TestHyperLogLogAccuracy(t *testing.T) {
	h, err := NewHyperLogLog(14)
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 200_000
	for i := 0; i < distinct; i++ {
		// Each key added multiple times: cardinality must not change.
		h.AddInt(int64(i))
		if i%3 == 0 {
			h.AddInt(int64(i))
		}
	}
	got := h.Count()
	if rel := math.Abs(got-distinct) / distinct; rel > 0.03 {
		t.Errorf("estimate %v for %d distinct (rel err %.4f > 0.03)", got, distinct, rel)
	}
}

func TestHyperLogLogSmallRange(t *testing.T) {
	h, err := NewHyperLogLog(12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.AddInt(int64(i))
	}
	got := h.Count()
	if got < 8 || got > 12 {
		t.Errorf("small-range estimate %v for 10 distinct", got)
	}
	if _, err := NewHyperLogLog(2); err == nil {
		t.Error("precision 2 accepted")
	}
	if _, err := NewHyperLogLog(19); err == nil {
		t.Error("precision 19 accepted")
	}
}
