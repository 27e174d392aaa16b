package dist

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
)

// Round-trip tolerances mirror the repo's parameter-recovery tests:
// generate from known parameters, refit, recover.

func TestLognormalRoundTrip(t *testing.T) {
	ln, err := NewLognormal(4.89991, 1.32074) // Table 2: intra-session gaps
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = ln.Sample(rng)
	}
	fit, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-ln.Mu) > 0.02 {
		t.Errorf("mu = %v, want ~%v", fit.Mu, ln.Mu)
	}
	if math.Abs(fit.Sigma-ln.Sigma) > 0.02 {
		t.Errorf("sigma = %v, want ~%v", fit.Sigma, ln.Sigma)
	}
	// KS self-consistency: a sample against its own law must sit near the
	// n^(-1/2) fluctuation scale.
	d, err := KolmogorovSmirnov(xs, fit.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.02 {
		t.Errorf("KS distance %v against own fit", d)
	}
}

func TestLognormalCDFShape(t *testing.T) {
	ln := Lognormal{Mu: 2, Sigma: 0.5}
	if got := ln.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %v", got)
	}
	if got := ln.CDF(ln.Median()); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(median) = %v, want 0.5", got)
	}
	if got := ln.CDF(1e12); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(inf-ish) = %v", got)
	}
	if m := ln.Mean(); math.Abs(m-math.Exp(2.125)) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
}

func TestLognormalErrors(t *testing.T) {
	if _, err := NewLognormal(1, 0); err == nil {
		t.Error("sigma 0 accepted")
	}
	if _, err := NewLognormal(math.NaN(), 1); err == nil {
		t.Error("NaN mu accepted")
	}
	if _, err := FitLognormal(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := FitLognormal([]float64{1, -2, 3}); err == nil {
		t.Error("negative sample accepted")
	}
	if _, err := FitLognormal([]float64{5, 5, 5}); err == nil {
		t.Error("degenerate sample accepted")
	}
}

func TestExponentialRoundTrip(t *testing.T) {
	ex := Exponential{MeanValue: 203150} // Figure 12: session OFF mean
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * ex.MeanValue
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.MeanValue-ex.MeanValue)/ex.MeanValue > 0.02 {
		t.Errorf("mean = %v, want ~%v", fit.MeanValue, ex.MeanValue)
	}
	d, err := KolmogorovSmirnov(xs, fit.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.02 {
		t.Errorf("KS distance %v against own fit", d)
	}
}

func TestExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := FitExponential([]float64{0, 0}); err == nil {
		t.Error("zero-mean sample accepted")
	}
	if _, err := FitExponential([]float64{1, -1}); err == nil {
		t.Error("negative sample accepted")
	}
}

func TestParetoSamplesAndTailRecovery(t *testing.T) {
	p, err := NewPareto(2, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 60000)
	for i := range xs {
		xs[i] = p.Sample(rng)
		if xs[i] < p.Xm {
			t.Fatalf("sample %v below scale %v", xs[i], p.Xm)
		}
	}
	// The log-log CCDF of a pure Pareto is a line of slope -alpha.
	fit, err := FitTail(xs, p.Xm, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-p.Alpha) > 0.1 {
		t.Errorf("tail alpha = %v, want ~%v", fit.Alpha, p.Alpha)
	}
	if got := p.CDF(p.Xm / 2); got != 0 {
		t.Errorf("CDF below xm = %v", got)
	}
	if got := p.CDF(4); math.Abs(got-(1-math.Pow(0.5, 1.4))) > 1e-12 {
		t.Errorf("CDF(4) = %v", got)
	}
	if m := p.Mean(); math.Abs(m-1.4*2/0.4) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
	if m := (Pareto{Xm: 1, Alpha: 0.9}).Mean(); !math.IsInf(m, 1) {
		t.Errorf("alpha<=1 mean = %v, want +Inf", m)
	}
}

func TestParetoErrors(t *testing.T) {
	if _, err := NewPareto(0, 1); err == nil {
		t.Error("zero xm accepted")
	}
	if _, err := NewPareto(1, 0); err == nil {
		t.Error("zero alpha accepted")
	}
}

func TestZipfRoundTrip(t *testing.T) {
	z, err := NewZipf(0.8, 1000) // GISMO stored-media popularity
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, z.N)
	const draws = 80000
	for i := 0; i < draws; i++ {
		r := z.SampleRank(rng)
		if r < 1 || r > z.N {
			t.Fatalf("rank %d out of [1, %d]", r, z.N)
		}
		counts[r-1]++
	}
	fit, err := FitZipfCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-z.Alpha) > 0.25 {
		t.Errorf("zipf alpha = %v, want ~%v", fit.Alpha, z.Alpha)
	}
	// Rank 1 must dominate: its empirical share tracks the PMF.
	share := float64(counts[0]) / draws
	if math.Abs(share-z.PMF(1)) > 0.01 {
		t.Errorf("rank-1 share %v vs pmf %v", share, z.PMF(1))
	}
}

func TestZipfPMFAndCDF(t *testing.T) {
	z, err := NewZipf(2.70417, 50) // Table 2: transfers per session
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k := 1; k <= z.N; k++ {
		sum += z.PMF(k)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("pmf sums to %v", sum)
	}
	if z.PMF(0) != 0 || z.PMF(z.N+1) != 0 {
		t.Error("pmf outside support")
	}
	if got := z.CDF(0.5); got != 0 {
		t.Errorf("CDF(0.5) = %v", got)
	}
	if got := z.CDF(float64(z.N)); got != 1 {
		t.Errorf("CDF(N) = %v", got)
	}
	if got := z.CDF(1); math.Abs(got-z.PMF(1)) > 1e-12 {
		t.Errorf("CDF(1) = %v, want pmf(1) = %v", got, z.PMF(1))
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 10); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := NewZipf(1, 0); err == nil {
		t.Error("zero n accepted")
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{0.7, 0.2, 0.06, 0.04}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(weights) {
		t.Fatalf("len = %d", a.Len())
	}
	rng := randv2.New(NewSplitMix64(5))
	counts := make([]float64, len(weights))
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[a.DrawV2(rng)]++
	}
	for i, w := range weights {
		got := counts[i] / draws
		if math.Abs(got-w) > 0.01 {
			t.Errorf("category %d share %v, want %v", i, got, w)
		}
	}
}

func TestAliasSingleAndErrors(t *testing.T) {
	a, err := NewAlias([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	rng := randv2.New(NewSplitMix64(6))
	for i := 0; i < 100; i++ {
		if a.DrawV2(rng) != 0 {
			t.Fatal("single-category alias drew nonzero")
		}
	}
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
}

func TestSamplersDeterministicUnderSeed(t *testing.T) {
	run := func() [3]float64 {
		rng := rand.New(rand.NewSource(7))
		ln := Lognormal{Mu: 1, Sigma: 0.5}
		pa := Pareto{Xm: 1, Alpha: 1.5}
		z, err := NewZipf(1.2, 100)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float64{ln.Sample(rng), pa.Sample(rng), float64(z.SampleRank(rng))}
	}
	if run() != run() {
		t.Error("samplers are not deterministic under a fixed seed")
	}
}
