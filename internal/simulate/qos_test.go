package simulate

import (
	"math/rand/v2"
	"testing"

	"repro/internal/trace"
)

func TestApplyQoSAbandonmentCutsOnlyCongested(t *testing.T) {
	transfers := []trace.Transfer{
		{Client: 1, Start: 0, Duration: 1000, Bandwidth: 56000, IP: 0, AS: 1},
		{Client: 2, Start: 0, Duration: 1000, Bandwidth: 5000, IP: 1, AS: 1},
		{Client: 3, Start: 0, Duration: 1000, Bandwidth: 3000, IP: 2, AS: 1},
	}
	tr, err := trace.New(10000, transfers)
	if err != nil {
		t.Fatal(err)
	}
	cfg := QoSConfig{AbandonProb: 1.0, MinFraction: 0.02}
	cut, n, err := ApplyQoSAbandonment(tr, cfg, 14400, rand.New(rand.NewPCG(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("cut %d transfers, want 2", n)
	}
	for _, tt := range cut.Transfers {
		if tt.Bandwidth >= 14400 && tt.Duration != 1000 {
			t.Errorf("client-bound transfer was cut: %+v", tt)
		}
		if tt.Bandwidth < 14400 && tt.Duration >= 1000 {
			t.Errorf("congested transfer not cut: %+v", tt)
		}
	}
	// Original untouched.
	for _, tt := range tr.Transfers {
		if tt.Duration != 1000 {
			t.Fatal("input trace mutated")
		}
	}
}

func TestApplyQoSAbandonmentZeroProb(t *testing.T) {
	tr, err := trace.New(100, []trace.Transfer{
		{Client: 1, Start: 0, Duration: 50, Bandwidth: 1000, IP: 0, AS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := ApplyQoSAbandonment(tr, QoSConfig{AbandonProb: 0, MinFraction: 0.02}, 14400, rand.New(rand.NewPCG(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("cut %d with zero probability", n)
	}
}

func TestRunQoSStudyShowsCounterfactualCorrelation(t *testing.T) {
	w := testWorkload(t, 30)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	study, err := RunQoSStudy(w, cfg, DefaultQoSConfig(), 14400, rand.New(rand.NewPCG(31, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if study.TransfersCut == 0 {
		t.Fatal("no transfers cut")
	}
	// Live behaviour: lengths are drawn independently of bandwidth, so
	// the correlation is near zero. Stored-media-like abandonment
	// creates a clearly positive one.
	if study.LiveCorrelation > 0.1 || study.LiveCorrelation < -0.1 {
		t.Errorf("live correlation = %v, want ~0 (stickiness)", study.LiveCorrelation)
	}
	if study.AbandonedCorrelation < study.LiveCorrelation+0.05 {
		t.Errorf("abandonment correlation %v should clearly exceed live %v",
			study.AbandonedCorrelation, study.LiveCorrelation)
	}
}

func TestLengthBandwidthCorrelationErrors(t *testing.T) {
	tr, err := trace.New(100, []trace.Transfer{
		{Client: 1, Start: 0, Duration: 50, Bandwidth: 1000, IP: 0, AS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LengthBandwidthCorrelation(tr); err == nil {
		t.Error("single transfer: want error")
	}
}
