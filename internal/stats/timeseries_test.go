package stats

import (
	"math"
	"testing"
)

func TestBinCounts(t *testing.T) {
	ts := []int64{0, 1, 899, 900, 1700, 2699, 2700, -5, 99999}
	b, err := BinCounts(ts, 2700, 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Values) != 3 {
		t.Fatalf("bins = %d, want 3", len(b.Values))
	}
	want := []float64{3, 2, 1} // out-of-range (-5, 2700, 99999) dropped
	for i := range want {
		if b.Values[i] != want[i] {
			t.Errorf("bin %d = %v, want %v", i, b.Values[i], want[i])
		}
	}
}

func TestBinCountsErrors(t *testing.T) {
	if _, err := BinCounts(nil, 0, 900); err == nil {
		t.Error("zero horizon: want error")
	}
	if _, err := BinCounts(nil, 900, 0); err == nil {
		t.Error("zero width: want error")
	}
}

func TestBinCountsPartialLastBin(t *testing.T) {
	b, err := BinCounts([]int64{0, 950}, 1000, 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Values) != 2 {
		t.Fatalf("bins = %d, want 2 (ceil)", len(b.Values))
	}
	if b.Values[0] != 1 || b.Values[1] != 1 {
		t.Errorf("values = %v", b.Values)
	}
}

// binMeans feeds (ts[i], vs[i]) to fresh MeanBins and returns the
// per-bin means.
func binMeans(ts []int64, vs []float64, horizon, width int64) (BinnedSeries, error) {
	bins, err := NewMeanBins(horizon, width)
	if err != nil {
		return BinnedSeries{}, err
	}
	for i, t := range ts {
		bins.Add(t, vs[i])
	}
	return bins.Series(), nil
}

func TestBinMeans(t *testing.T) {
	ts := []int64{10, 20, 1000, 1100}
	vs := []float64{2, 4, 10, 20}
	b, err := binMeans(ts, vs, 1800, 900)
	if err != nil {
		t.Fatal(err)
	}
	if b.Values[0] != 3 || b.Values[1] != 15 {
		t.Errorf("means = %v, want [3 15]", b.Values)
	}
}

func TestBinMeansEmptyBinIsZero(t *testing.T) {
	b, err := binMeans([]int64{10}, []float64{5}, 2700, 900)
	if err != nil {
		t.Fatal(err)
	}
	if b.Values[1] != 0 || b.Values[2] != 0 {
		t.Errorf("empty bins = %v, want zeros", b.Values[1:])
	}
}

func TestBinMeansErrors(t *testing.T) {
	if _, err := binMeans(nil, nil, 0, 900); err == nil {
		t.Error("zero horizon: want error")
	}
}

func TestFoldModuloDay(t *testing.T) {
	// Two days of 4 six-hour bins each; fold onto one day.
	b := BinnedSeries{Width: 21600, Values: []float64{1, 2, 3, 4, 3, 4, 5, 6}}
	folded, err := b.FoldModulo(86400)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4, 5}
	if len(folded.Values) != 4 {
		t.Fatalf("folded bins = %d", len(folded.Values))
	}
	for i := range want {
		if math.Abs(folded.Values[i]-want[i]) > 1e-12 {
			t.Errorf("fold[%d] = %v, want %v", i, folded.Values[i], want[i])
		}
	}
}

func TestFoldModuloErrors(t *testing.T) {
	b := BinnedSeries{Width: 900, Values: make([]float64, 10)}
	if _, err := b.FoldModulo(0); err == nil {
		t.Error("zero period: want error")
	}
	if _, err := b.FoldModulo(1000); err == nil {
		t.Error("period not multiple of width: want error")
	}
}

func TestFoldModuloUnevenTail(t *testing.T) {
	// 1.5 periods: the first half-period phases average over 2 samples,
	// the rest over 1.
	b := BinnedSeries{Width: 1, Values: []float64{1, 2, 3, 4, 9, 10}}
	folded, err := b.FoldModulo(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 3, 4}
	for i := range want {
		if math.Abs(folded.Values[i]-want[i]) > 1e-12 {
			t.Errorf("fold[%d] = %v, want %v", i, folded.Values[i], want[i])
		}
	}
}

func TestBinnedSeriesMaxAndPoints(t *testing.T) {
	b := BinnedSeries{Width: 900, Values: []float64{1, 5, 3}}
	if b.Max() != 5 {
		t.Errorf("Max = %v", b.Max())
	}
	pts := b.Points()
	if pts[1].X != 900 || pts[1].Y != 5 {
		t.Errorf("Points[1] = %+v", pts[1])
	}
	empty := BinnedSeries{}
	if empty.Max() != 0 {
		t.Error("empty Max should be 0")
	}
}

func TestRankFrequencies(t *testing.T) {
	freq := RankFrequencies([]int{1, 0, 3, 6, 0})
	want := []float64{0.6, 0.3, 0.1}
	if len(freq) != 3 {
		t.Fatalf("freq = %v", freq)
	}
	for i := range want {
		if math.Abs(freq[i]-want[i]) > 1e-12 {
			t.Errorf("freq[%d] = %v, want %v", i, freq[i], want[i])
		}
	}
	if RankFrequencies([]int{0, 0}) != nil {
		t.Error("all-zero counts should return nil")
	}
	if RankFrequencies(nil) != nil {
		t.Error("nil counts should return nil")
	}
}

func TestRankFrequenciesSumToOne(t *testing.T) {
	freq := RankFrequencies([]int{5, 3, 9, 1, 1, 7, 2})
	var sum float64
	for i, f := range freq {
		sum += f
		if i > 0 && freq[i] > freq[i-1] {
			t.Error("frequencies not descending")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum = %v", sum)
	}
}
