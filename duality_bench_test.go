package repro

import (
	"math/rand"
	randv2 "math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/stats"
)

// BenchmarkExtensionLiveVsStoredDuality measures the paper's central
// conceptual claim (Section 1 / Section 3.5): stored-media access is
// user-driven (Zipf *object popularity*, size-driven transfer lengths),
// live-media access is object-driven (Zipf *client interest*,
// stickiness-driven lengths). Metrics: the object-popularity slope of
// the stored workload, the client-interest slope of the live workload,
// and the length/size rank correlation of each.
func BenchmarkExtensionLiveVsStoredDuality(b *testing.B) {
	f := getFixture(b)
	stored := gismo.DefaultStored(benchDays, f.model.NumClients, 0.1)
	b.ResetTimer()
	var popAlpha, interestAlpha, storedCorr, liveCorr float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 5))
		sw, err := gismo.GenerateStored(stored, rng)
		if err != nil {
			b.Fatal(err)
		}
		// Stored: object popularity Zipf + size-driven lengths.
		counts := make([]int, stored.NumObjects)
		lengths := make([]float64, len(sw.Requests))
		sizes := make([]float64, len(sw.Requests))
		for j, r := range sw.Requests {
			counts[r.Object]++
			lengths[j] = float64(r.Duration)
			sizes[j] = float64(sw.ObjectSeconds[r.Object])
		}
		fit, err := dist.FitZipfCounts(counts)
		if err != nil {
			b.Fatal(err)
		}
		popAlpha = fit.Alpha
		storedCorr, err = stats.SpearmanCorrelation(lengths, sizes)
		if err != nil {
			b.Fatal(err)
		}

		// Live: client interest Zipf + object-independent lengths.
		liveCounts := make(map[int32]int)
		liveLen := make([]float64, 0, f.tr.NumTransfers())
		liveObj := make([]float64, 0, f.tr.NumTransfers())
		for _, t := range f.tr.Transfers {
			liveCounts[t.Client]++
			liveLen = append(liveLen, float64(t.Duration))
			liveObj = append(liveObj, float64(t.Object))
		}
		cc := make([]int, 0, len(liveCounts))
		for _, c := range liveCounts {
			cc = append(cc, c)
		}
		lfit, err := dist.FitZipfCounts(cc)
		if err != nil {
			b.Fatal(err)
		}
		interestAlpha = lfit.Alpha
		liveCorr, err = stats.SpearmanCorrelation(liveLen, liveObj)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(popAlpha, "stored_popularity_alpha")
	b.ReportMetric(interestAlpha, "live_interest_alpha")
	b.ReportMetric(storedCorr, "stored_len_size_corr")
	b.ReportMetric(liveCorr, "live_len_object_corr")
}

// BenchmarkExtensionQoSAbandonment runs the paper's stated future work
// (Section 8): what does QoS-driven abandonment do to the
// length/bandwidth correlation? Live (sticky) behaviour shows ~0;
// stored-media-like impatience turns it clearly positive.
func BenchmarkExtensionQoSAbandonment(b *testing.B) {
	f := getFixture(b)
	_ = f
	m, err := gismo.Scaled(benchScale, 3)
	if err != nil {
		b.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 77)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simulate.DefaultConfig()
	cfg.SpanningPerMillion = 0
	b.ResetTimer()
	var study *simulate.QoSStudy
	for i := 0; i < b.N; i++ {
		study, err = simulate.RunQoSStudy(w, cfg, simulate.DefaultQoSConfig(), 14400, randv2.New(randv2.NewPCG(uint64(i)+9, 0)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.LiveCorrelation, "corr_live_sticky")
	b.ReportMetric(study.AbandonedCorrelation, "corr_with_abandonment")
	b.ReportMetric(float64(study.TransfersCut), "transfers_cut")
}
