package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearHistogramBasic(t *testing.T) {
	h, err := NewLinearHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if h.total != 11 {
		t.Errorf("Total = %d, want 11", h.total)
	}
	// Bins: [0,2) [2,4) [4,6) [6,8) [8,10]; the value 10 lands in the last.
	want := []int{2, 2, 2, 2, 3}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d (counts=%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	u, o := h.OutOfRange()
	if u != 0 || o != 0 {
		t.Errorf("out of range: under=%d over=%d", u, o)
	}
}

func TestLinearHistogramOutOfRange(t *testing.T) {
	h, err := NewLinearHistogram(0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-1)
	h.Add(11)
	h.Add(5)
	u, o := h.OutOfRange()
	if u != 1 || o != 1 {
		t.Errorf("under=%d over=%d, want 1, 1", u, o)
	}
	if h.total != 3 {
		t.Errorf("Total = %d, want 3", h.total)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewLinearHistogram(0, 10, 0); err == nil {
		t.Error("0 bins: want error")
	}
	if _, err := NewLinearHistogram(10, 0, 5); err == nil {
		t.Error("inverted range: want error")
	}
	if _, err := NewLogHistogram(0, 10, 5); err == nil {
		t.Error("lo=0 log: want error")
	}
	if _, err := NewLogHistogram(1, 1, 5); err == nil {
		t.Error("degenerate log range: want error")
	}
}

func TestLogHistogramEdges(t *testing.T) {
	h, err := NewLogHistogram(1, 1e6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Edges should be decades: 1, 10, 100, ..., 1e6.
	for i, want := range []float64{1, 10, 100, 1000, 1e4, 1e5, 1e6} {
		if math.Abs(h.Edges[i]-want)/want > 1e-9 {
			t.Errorf("edge %d = %v, want %v", i, h.Edges[i], want)
		}
	}
	h.Add(5)    // bin 0
	h.Add(50)   // bin 1
	h.Add(5e5)  // bin 5
	h.Add(1e6)  // closed top -> bin 5
	h.Add(1)    // bin 0
	h.Add(9.99) // bin 0
	if h.Counts[0] != 3 || h.Counts[1] != 1 || h.Counts[5] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestHistogramFrequenciesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, err := NewLogHistogram(1, 1e4, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		h.Add(1 + rng.Float64()*9998)
	}
	var sum float64
	for _, f := range h.Frequencies() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("frequency sum = %v, want 1 (no out-of-range data)", sum)
	}
}

func TestHistogramFrequenciesEmpty(t *testing.T) {
	h, _ := NewLinearHistogram(0, 1, 2)
	if h.Frequencies() != nil {
		t.Error("empty histogram should return nil frequencies")
	}
}

func TestHistogramCenters(t *testing.T) {
	h, _ := NewLinearHistogram(0, 10, 5)
	c := h.Centers()
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-12 {
			t.Errorf("center %d = %v, want %v", i, c[i], want[i])
		}
	}
	lh, _ := NewLogHistogram(1, 100, 2)
	lc := lh.Centers()
	if math.Abs(lc[0]-math.Sqrt(10)) > 1e-9 {
		t.Errorf("log center 0 = %v, want sqrt(10)", lc[0])
	}
}

// Property: every in-range observation lands in the bin whose edges
// bracket it, for both scales.
func TestHistogramPlacementProperty(t *testing.T) {
	f := func(xRaw float64, logScale bool) bool {
		x := 1 + math.Abs(math.Mod(xRaw, 9998))
		var h *Histogram
		var err error
		if logScale {
			h, err = NewLogHistogram(1, 10000, 37)
		} else {
			h, err = NewLinearHistogram(1, 10000, 37)
		}
		if err != nil {
			return false
		}
		h.Add(x)
		for i, c := range h.Counts {
			if c == 1 {
				hiOK := x < h.Edges[i+1] || (i == len(h.Counts)-1 && x <= h.Edges[i+1])
				return h.Edges[i] <= x && hiOK
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
