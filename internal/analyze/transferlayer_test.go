package analyze

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func TestDetectBandwidthModes(t *testing.T) {
	// Three sharp spikes plus a diffuse low mode.
	rng := rand.New(rand.NewSource(1))
	var bws []float64
	add := func(center float64, n int) {
		for i := 0; i < n; i++ {
			bws = append(bws, center*(1+0.03*(2*rng.Float64()-1)))
		}
	}
	add(28800, 400)
	add(56000, 300)
	add(256000, 200)
	for i := 0; i < 100; i++ { // congestion continuum
		bws = append(bws, math.Exp(8+1.2*rng.NormFloat64()))
	}
	modes, congestion := detectBandwidthModes(bws)
	if len(modes) < 3 {
		t.Fatalf("modes = %v", modes)
	}
	found := map[int]bool{}
	for _, m := range modes {
		for _, want := range []float64{28800, 56000, 256000} {
			if math.Abs(m.Bps-want)/want < 0.1 {
				found[int(want)] = true
			}
		}
	}
	if len(found) != 3 {
		t.Errorf("spikes found = %v (modes %v)", found, modes)
	}
	if congestion < 0.05 || congestion > 0.15 {
		t.Errorf("congestion = %v, want ~0.1", congestion)
	}
}

func TestDetectBandwidthModesEmpty(t *testing.T) {
	modes, c := detectBandwidthModes(nil)
	if modes != nil || c != 0 {
		t.Error("empty input should return nothing")
	}
}

func TestDetectBandwidthModesSingleCluster(t *testing.T) {
	bws := []float64{100, 101, 102, 103}
	modes, congestion := detectBandwidthModes(bws)
	if len(modes) != 1 {
		t.Fatalf("modes = %v", modes)
	}
	if math.Abs(modes[0].Share-1) > 1e-9 {
		t.Errorf("share = %v", modes[0].Share)
	}
	if congestion != 0 {
		t.Errorf("congestion = %v", congestion)
	}
}

func TestFitInterarrivalTailsShortInput(t *testing.T) {
	tl := &TransferLayer{Interarrivals: []float64{1, 2, 3}}
	if err := tl.fitInterarrivalTails(); err != nil {
		t.Fatal(err)
	}
	if tl.TailBody.Points != 0 || tl.TailFar.Points != 0 {
		t.Error("short input should not produce fits")
	}
}

func TestAnalyzeTransferLayerSyntheticTwoRegimes(t *testing.T) {
	// Construct interarrivals with an explicit two-regime structure:
	// dense exponential-ish body plus a power-law far tail.
	rng := rand.New(rand.NewSource(2))
	var transfers []trace.Transfer
	tcur := int64(0)
	for i := 0; i < 30000; i++ {
		var gap int64
		if rng.Float64() < 0.97 {
			// Body: Pareto(xm=2, alpha=3), truncated at 100.
			g := 2 / math.Pow(rng.Float64(), 1/3.0)
			if g > 100 {
				g = 100
			}
			gap = int64(g)
		} else {
			// Far tail: Pareto(xm=100, alpha=0.8), truncated.
			gap = int64(100 / math.Pow(rng.Float64(), 1/0.8))
			if gap > 50000 {
				gap = 50000
			}
		}
		tcur += gap
		transfers = append(transfers, trace.Transfer{
			Client: int32(i % 500), Start: tcur, Duration: 10 + int64(rng.Intn(100)),
			AS: 1, Bandwidth: 56000, Bytes: 1,
		})
	}
	tr, err := trace.New(tcur+1000, transfers)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := AnalyzeTransferLayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if tl.TailBody.Points == 0 || tl.TailFar.Points == 0 {
		t.Fatal("expected both tail fits")
	}
	if tl.TailBody.Alpha <= tl.TailFar.Alpha {
		t.Errorf("body alpha %v should exceed far alpha %v (paper's two-regime ordering)",
			tl.TailBody.Alpha, tl.TailFar.Alpha)
	}
}
