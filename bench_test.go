// Package repro's benchmark harness regenerates every table and figure of
// Veloso et al., "A Hierarchical Characterization of a Live Streaming
// Media Workload" (IMC 2002).
//
// One benchmark per paper artifact (Table 1, Figures 2-20, Table 2) plus
// the ablation benches called out in DESIGN.md. Each figure bench times
// the analysis that produces the figure's data and reports the figure's
// headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints both the cost of regenerating each artifact and the measured
// values next to which EXPERIMENTS.md records the paper's numbers.
//
// All benches share one deterministic synthetic trace: the paper's
// Table 2 parameters at 1/150 of the population over 7 of the 28 days
// (see DESIGN.md's substitution record).
package repro

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/analyze"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// benchScale and benchDays size the shared fixture. Scale 150 over 7
// days yields roughly 9,000 sessions / 33,000 transfers — large enough
// for stable fits, small enough that the full suite runs in minutes.
const (
	benchScale = 150
	benchDays  = 7
	benchSeed  = 2002
)

type benchFixture struct {
	model gismo.Model
	tr    *trace.Trace // sanitized
	set   *sessions.Set
	repo  *core.Report
}

var (
	fixtureOnce sync.Once
	fixture     *benchFixture
	fixtureErr  error
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		cfg, err := core.DefaultConfig(benchScale, benchDays, benchSeed)
		if err != nil {
			fixtureErr = err
			return
		}
		rep, err := core.Run(cfg)
		if err != nil {
			fixtureErr = err
			return
		}
		// Rebuild the sanitized trace and session set once for the
		// per-figure benches.
		w, err := gismo.GenerateSeeded(cfg.Model, benchSeed)
		if err != nil {
			fixtureErr = err
			return
		}
		res, err := simulate.Run(w, cfg.Server, uint64(benchSeed))
		if err != nil {
			fixtureErr = err
			return
		}
		clean, _ := res.Trace.Sanitize()
		set, err := sessions.Sessionize(clean, cfg.SessionTimeout)
		if err != nil {
			fixtureErr = err
			return
		}
		fixture = &benchFixture{model: cfg.Model, tr: clean, set: set, repo: rep}
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixture
}

// --- Table 1 ---------------------------------------------------------

func BenchmarkTable1BasicStats(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var users, transfers int
	for i := 0; i < b.N; i++ {
		users = f.tr.NumClients()
		transfers = f.tr.NumTransfers()
		_ = f.tr.TotalBytes()
		_ = f.tr.DistinctAS()
		_ = f.tr.DistinctIPs()
	}
	b.ReportMetric(float64(users), "users")
	b.ReportMetric(float64(transfers), "transfers")
	b.ReportMetric(float64(f.set.Count()), "sessions")
}

// --- Figure 2: client diversity --------------------------------------

func BenchmarkFigure2ClientDiversity(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var d *analyze.Diversity
	for i := 0; i < b.N; i++ {
		var err error
		d, err = analyze.AnalyzeDiversity(f.tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.NumAS), "ASes")
	b.ReportMetric(d.CountryShare["BR"], "BR_share")
}

// --- Figures 3, 4, 8: client concurrency, temporal, ACF --------------

func clientIntervals(f *benchFixture) []analyze.Interval {
	iv := make([]analyze.Interval, f.set.Count())
	for i, s := range f.set.Sessions {
		iv[i] = analyze.Interval{Start: s.Start, End: s.End}
	}
	return iv
}

func BenchmarkFigure3ClientConcurrency(b *testing.B) {
	f := getFixture(b)
	iv := clientIntervals(f)
	b.ResetTimer()
	var rep *analyze.ConcurrencyReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = analyze.Concurrency(iv, f.tr.Horizon)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Peak), "peak_clients")
	b.ReportMetric(rep.Marginal.Quantile(0.5), "median_clients")
}

func BenchmarkFigure4ClientTemporal(b *testing.B) {
	f := getFixture(b)
	iv := clientIntervals(f)
	rep, err := analyze.Concurrency(iv, f.tr.Horizon)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var day stats.BinnedSeries
	for i := 0; i < b.N; i++ {
		day, err = rep.Binned.FoldModulo(86400)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rep.Binned.FoldModulo(7 * 86400); err != nil {
			b.Fatal(err)
		}
	}
	// Trough (04-11h) versus evening peak (19-23h) mean concurrency.
	trough := meanRange(day.Values, 4*4, 11*4)
	evening := meanRange(day.Values, 19*4, 23*4)
	b.ReportMetric(trough, "trough_clients")
	b.ReportMetric(evening, "evening_clients")
}

func meanRange(vs []float64, lo, hi int) float64 {
	if hi > len(vs) {
		hi = len(vs)
	}
	if lo >= hi {
		return 0
	}
	var s float64
	for _, v := range vs[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}

func BenchmarkFigure8Autocorrelation(b *testing.B) {
	f := getFixture(b)
	iv := clientIntervals(f)
	b.ResetTimer()
	var acfDay float64
	for i := 0; i < b.N; i++ {
		rep, err := analyze.Concurrency(iv, f.tr.Horizon)
		if err != nil {
			b.Fatal(err)
		}
		if acf := rep.ACF(); len(acf) > 1440 {
			acfDay = acf[1440]
		}
	}
	b.ReportMetric(acfDay, "acf_1day")
}

// --- Figures 5, 6: client interarrivals and the Poisson replica ------

func BenchmarkFigure5ClientInterarrivals(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var inter []float64
	for i := 0; i < b.N; i++ {
		inter = analyze.ClientInterarrivals(f.set)
	}
	s, err := stats.Summarize(inter)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.Mean, "mean_s")
	b.ReportMetric(s.P99, "p99_s")
}

func BenchmarkFigure6PiecewisePoisson(b *testing.B) {
	f := getFixture(b)
	measured := analyze.ClientInterarrivals(f.set)
	b.ResetTimer()
	var rep core.PoissonReplica
	for i := 0; i < b.N; i++ {
		rep = core.BuildPoissonReplica(f.set, f.tr.Horizon, measured, int64(i)+1)
	}
	b.ReportMetric(rep.KS, "ks_vs_measured")
}

// --- Figure 7: client interest profile --------------------------------

func BenchmarkFigure7ClientInterest(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var cl *analyze.ClientLayer
	for i := 0; i < b.N; i++ {
		var err error
		cl, err = analyze.AnalyzeClientLayer(f.set)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cl.InterestTransfers.Alpha, "alpha_transfers")
	b.ReportMetric(cl.InterestSessions.Alpha, "alpha_sessions")
}

// --- Figure 9: sessions versus timeout --------------------------------

func BenchmarkFigure9SessionsVsTimeout(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var pts []sessions.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sessions.SweepTimeout(f.tr, core.DefaultTimeoutSweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	var at1500, at4000 float64
	for _, p := range pts {
		if p.Timeout == 1500 {
			at1500 = float64(p.Sessions)
		}
		if p.Timeout == 4000 {
			at4000 = float64(p.Sessions)
		}
	}
	b.ReportMetric(at1500, "sessions_at_1500")
	b.ReportMetric((at1500-at4000)/at1500*100, "flattening_pct")
}

// --- Figures 10-14: session layer -------------------------------------

func BenchmarkFigure10OnTimeVsHour(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var sl *analyze.SessionLayer
	for i := 0; i < b.N; i++ {
		var err error
		sl, err = analyze.AnalyzeSessionLayer(f.set)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sl.OnHourR2, "hour_r2")
}

func BenchmarkFigure11SessionOnTime(b *testing.B) {
	f := getFixture(b)
	on := analyze.InterarrivalDisplay(f.set.OnTimes())
	b.ResetTimer()
	var fit dist.Lognormal
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = dist.FitLognormal(on)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.Mu, "mu")
	b.ReportMetric(fit.Sigma, "sigma")
}

func BenchmarkFigure12SessionOffTime(b *testing.B) {
	f := getFixture(b)
	off := f.set.OffTimes()
	if len(off) == 0 {
		b.Skip("no OFF times at this scale")
	}
	b.ResetTimer()
	var fit dist.Exponential
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = dist.FitExponential(off)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.MeanValue, "mean_s")
}

func BenchmarkFigure13TransfersPerSession(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var sl *analyze.SessionLayer
	for i := 0; i < b.N; i++ {
		var err error
		sl, err = analyze.AnalyzeSessionLayer(f.set)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sl.PerSessionFit.Alpha, "zipf_alpha")
}

func BenchmarkFigure14SessionTransferInterarrivals(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var fit dist.Lognormal
	for i := 0; i < b.N; i++ {
		gaps := analyze.InterarrivalDisplay(f.set.IntraSessionInterarrivals())
		var err error
		fit, err = dist.FitLognormal(gaps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.Mu, "mu")
	b.ReportMetric(fit.Sigma, "sigma")
}

// --- Figures 15-20: transfer layer -------------------------------------

func transferIntervals(f *benchFixture) []analyze.Interval {
	iv := make([]analyze.Interval, f.tr.NumTransfers())
	for i, t := range f.tr.Transfers {
		iv[i] = analyze.Interval{Start: t.Start, End: t.End()}
	}
	return iv
}

func BenchmarkFigure15TransferConcurrency(b *testing.B) {
	f := getFixture(b)
	iv := transferIntervals(f)
	b.ResetTimer()
	var rep *analyze.ConcurrencyReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = analyze.Concurrency(iv, f.tr.Horizon)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Peak), "peak_transfers")
}

func BenchmarkFigure16TransferTemporal(b *testing.B) {
	f := getFixture(b)
	iv := transferIntervals(f)
	rep, err := analyze.Concurrency(iv, f.tr.Horizon)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var day stats.BinnedSeries
	for i := 0; i < b.N; i++ {
		day, err = rep.Binned.FoldModulo(86400)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(day.Max(), "peak_bin_transfers")
}

func BenchmarkFigure17TransferInterarrivals(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var tl *analyze.TransferLayer
	for i := 0; i < b.N; i++ {
		var err error
		tl, err = analyze.AnalyzeTransferLayer(f.tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tl.TailBody.Alpha, "tail_alpha_body")
	b.ReportMetric(tl.TailFar.Alpha, "tail_alpha_far")
}

func BenchmarkFigure18TransferInterarrivalTemporal(b *testing.B) {
	f := getFixture(b)
	tl, err := analyze.AnalyzeTransferLayer(f.tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var day stats.BinnedSeries
	for i := 0; i < b.N; i++ {
		day, err = tl.InterarrivalBinned.FoldModulo(86400)
		if err != nil {
			b.Fatal(err)
		}
	}
	trough := meanRange(day.Values, 5*4, 11*4)
	evening := meanRange(day.Values, 19*4, 23*4)
	b.ReportMetric(trough, "trough_interarrival_s")
	b.ReportMetric(evening, "evening_interarrival_s")
}

func BenchmarkFigure19TransferLength(b *testing.B) {
	f := getFixture(b)
	lengths := make([]float64, f.tr.NumTransfers())
	for i, t := range f.tr.Transfers {
		lengths[i] = stats.LogDisplayValue(float64(t.Duration))
	}
	b.ResetTimer()
	var fit dist.Lognormal
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = dist.FitLognormal(lengths)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.Mu, "mu")
	b.ReportMetric(fit.Sigma, "sigma")
}

func BenchmarkFigure20TransferBandwidth(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var tl *analyze.TransferLayer
	for i := 0; i < b.N; i++ {
		var err error
		tl, err = analyze.AnalyzeTransferLayer(f.tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tl.BandwidthModes)), "modes")
	b.ReportMetric(tl.CongestionFrac, "congestion_frac")
}

// --- Table 2: the generative model round trip -------------------------

func BenchmarkTable2GenerativeModel(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var comps int
	for i := 0; i < b.N; i++ {
		comps = len(f.repo.Comparisons())
	}
	b.ReportMetric(float64(comps), "comparisons")
	// Round-trip quality: worst relative error across the Table 2 rows
	// that are direct model parameters.
	worst := 0.0
	for _, c := range f.repo.Comparisons() {
		switch c.Quantity {
		case "transfers/session Zipf alpha",
			"intra-session gap lognormal mu", "intra-session gap lognormal sigma",
			"transfer length lognormal mu", "transfer length lognormal sigma":
			if r := c.RelErr(); r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst*100, "worst_roundtrip_pct")
}

// --- Pipeline component benches ---------------------------------------

func BenchmarkPipelineGenerate(b *testing.B) {
	m, err := gismo.Scaled(benchScale, benchDays)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gismo.GenerateSeeded(m, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineSimulate(b *testing.B) {
	m, err := gismo.Scaled(benchScale, benchDays)
	if err != nil {
		b.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simulate.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(w, cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineSessionize(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sessions.Sessionize(f.tr, 1500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineFullCharacterization(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Characterize(f.tr, 1500, nil, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineConcurrency times the c(t) report at the two shapes
// that bound it, over the paper's 28 days. sparse: the transfers of a
// scale-20 run (≈ 120 k intervals, 1 per 20 s of horizon), where a
// per-second walk is all horizon. dense: one interval starting every
// second, n = horizon = 2.4 M — paper scale — where the event sweep
// must not lose to the walk. B/op is the point as much as ns/op:
// nothing may be sized by the second.
func BenchmarkPipelineConcurrency(b *testing.B) {
	const horizon = 28 * 86400
	m, err := gismo.Scaled(20, 28)
	if err != nil {
		b.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulate.Run(w, simulate.DefaultConfig(), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	clean, _ := res.Trace.Sanitize()
	sparse := make([]analyze.Interval, clean.NumTransfers())
	for i, t := range clean.Transfers {
		sparse[i] = analyze.Interval{Start: t.Start, End: t.End()}
	}
	rng := rand.New(rand.NewSource(benchSeed))
	dense := make([]analyze.Interval, horizon)
	for i := range dense {
		dense[i] = analyze.Interval{Start: int64(i), End: int64(i) + int64(math.Exp(4.4+1.4*rng.NormFloat64()))}
	}
	b.Run("sparse", func(b *testing.B) { benchConcurrency(b, sparse, horizon) })
	b.Run("dense", func(b *testing.B) { benchConcurrency(b, dense, horizon) })
}

func benchConcurrency(b *testing.B, iv []analyze.Interval, horizon int64) {
	b.ReportAllocs()
	b.ResetTimer()
	var rep *analyze.ConcurrencyReport
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = analyze.Concurrency(iv, horizon); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(iv)), "intervals")
	b.ReportMetric(float64(rep.Peak), "peak")
}

// BenchmarkPipelineDiversity times Table 1's population counts and
// Figure 2 as Characterize's diversity task produces them: one counting
// walk over the trace's integer ids (trace.Census), then the shares.
func BenchmarkPipelineDiversity(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var d *analyze.Diversity
	for i := 0; i < b.N; i++ {
		var err error
		if d, err = analyze.AnalyzeDiversity(f.tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.NumIPs), "IPs")
}

// BenchmarkSortSample times the sorted copy of a transfer-length
// display sample (⌊t+1⌋ of lognormal seconds — what every KS distance,
// ECDF and quantile of the characterization sorts) through
// stats.SortedCopy and through the copy-then-sort.Float64s it replaced,
// at a session-sized and a trace-sized sample.
func BenchmarkSortSample(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		rng := rand.New(rand.NewSource(benchSeed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = stats.LogDisplayValue(math.Exp(4.4 + 1.4*rng.NormFloat64()))
		}
		for _, impl := range []struct {
			name string
			sort func([]float64) []float64
		}{
			{"kernel", stats.SortedCopy},
			{"stdlib", func(xs []float64) []float64 {
				sorted := slices.Clone(xs)
				sort.Float64s(sorted)
				return sorted
			}},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", impl.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if sorted := impl.sort(xs); sorted[0] > sorted[n-1] {
						b.Fatal("not sorted")
					}
				}
			})
		}
	}
}

// twinFixture caches the calibration loop's inputs on the shared
// fixture: the model fitted to its characterization, and one twin.
var twinFixture struct {
	once  sync.Once
	err   error
	model gismo.Model
	twin  *core.Characterization
}

func getTwinFixture(b *testing.B) (source, twin *core.Characterization, model gismo.Model) {
	b.Helper()
	source = getFixture(b).repo.Char
	fx := &twinFixture
	fx.once.Do(func() {
		fx.model, _ = calibrate.Fit(source)
		fx.twin, fx.err = calibrate.Twin(fx.model, benchSeed, 1500)
	})
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	return source, fx.twin, fx.model
}

// BenchmarkPipelineTwin times the regenerate half of the calibration
// loop: generate and serve the fitted model, collect the twin's trace,
// characterize it.
func BenchmarkPipelineTwin(b *testing.B) {
	_, _, model := getTwinFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibrate.Twin(model, benchSeed, 1500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineValidate times the seven two-sample KS checks and
// the comparison table of a source against its twin.
func BenchmarkPipelineValidate(b *testing.B) {
	source, twin, _ := getTwinFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rejects int
	for i := 0; i < b.N; i++ {
		rep := calibrate.Validate(source, twin)
		rejects = len(rep.Rejections())
	}
	b.ReportMetric(float64(rejects), "ks_rejections")
}

// loadLogsFixture caches, as bytes, the daily text logs of a 14-day
// streamed run — the 3-day streaming fixture's population (scale 100)
// at a fifth of its arrival density, ~110k entries, one file per day
// so up to 15 files can parse at once. Rendering them is generator
// work the benchmark must not time, and each benchmark invocation
// needs them on disk under its own b.TempDir.
var loadLogsFixture struct {
	once    sync.Once
	err     error
	files   map[string][]byte
	entries int64
}

func buildLoadLogsFixture() error {
	m, err := gismo.Scaled(100, 14)
	if err != nil {
		return err
	}
	m.BaseArrivalRate *= 12
	dir, err := os.MkdirTemp("", "loadlogs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ws, err := gismo.NewStream(m, benchSeed, 1)
	if err != nil {
		return err
	}
	defer ws.Close()
	dw, err := wmslog.NewDailyWriter(dir)
	if err != nil {
		return err
	}
	_, err = simulate.RunStream(ws, ws.Population(), m.Horizon, simulate.DefaultConfig(), benchSeed,
		simulate.StreamSinks{Entry: dw.Write})
	if cerr := dw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	loadLogsFixture.entries = dw.Entries()
	loadLogsFixture.files = make(map[string][]byte)
	for _, path := range dw.Files() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		loadLogsFixture.files[filepath.Base(path)] = data
	}
	return nil
}

// BenchmarkPipelineLoadLogs times the observe path's front half as
// lsmcal and lsmchar run it: daily log files on disk → sanitized trace
// (core.LoadLogs: find, parse a file per core, merge, sort, sanitize).
// At -cpu 1 it is the sequential ingest; the -cpu 2,4,8 rows are the
// same call with more workers, which benchjson annotates with
// speedup_vs_sequential against the -cpu 1 row.
func BenchmarkPipelineLoadLogs(b *testing.B) {
	fx := &loadLogsFixture
	fx.once.Do(func() { fx.err = buildLoadLogsFixture() })
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	dir := b.TempDir()
	var size int64
	for name, data := range fx.files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			b.Fatal(err)
		}
		size += int64(len(data))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := core.LoadLogs(dir, 14, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// Sanitization drops the few injected spanning entries.
		if n := int64(tr.NumTransfers()); n == 0 || n > fx.entries {
			b.Fatalf("loaded %d transfers from %d entries", n, fx.entries)
		}
	}
	b.ReportMetric(float64(fx.entries), "entries")
}

// --- Ablations (DESIGN.md section 5) -----------------------------------

// BenchmarkAblationSessionTimeout quantifies how the choice of T_o
// distorts the session count (A1): the metric is the extra sessions (in
// percent) that T_o = 500 produces versus the paper's 1,500.
func BenchmarkAblationSessionTimeout(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var n500, n1500 int
	for i := 0; i < b.N; i++ {
		s500, err := sessions.Sessionize(f.tr, 500)
		if err != nil {
			b.Fatal(err)
		}
		s1500, err := sessions.Sessionize(f.tr, 1500)
		if err != nil {
			b.Fatal(err)
		}
		n500, n1500 = s500.Count(), s1500.Count()
	}
	b.ReportMetric(float64(n500-n1500)/float64(n1500)*100, "extra_sessions_pct")
}

// BenchmarkAblationPoissonWindow sweeps the piecewise-stationarity window
// (A2): wider windows smooth the diurnal modulation and distort the
// synthetic interarrival distribution; the metric is the KS distance at a
// 4-hour window versus the paper's 15 minutes.
func BenchmarkAblationPoissonWindow(b *testing.B) {
	f := getFixture(b)
	measured := analyze.InterarrivalDisplay(analyze.ClientInterarrivals(f.set))
	arrivals := f.set.ArrivalTimes()
	counts, err := stats.BinCounts(arrivals, f.tr.Horizon, 900)
	if err != nil {
		b.Fatal(err)
	}
	dayFold, err := counts.FoldModulo(86400)
	if err != nil {
		b.Fatal(err)
	}
	rateOf := func(t float64) float64 {
		slot := int(int64(t)%86400) / 900
		if slot < 0 || slot >= len(dayFold.Values) {
			return 0
		}
		return dayFold.Values[slot] / 900
	}
	run := func(window float64, seed int64) float64 {
		pp, err := dist.NewPiecewisePoisson(rateOf, window)
		if err != nil {
			b.Fatal(err)
		}
		synth := pp.Arrivals(rand.New(rand.NewSource(seed)), float64(f.tr.Horizon), nil)
		gaps := make([]float64, 0, len(synth))
		for i := 1; i < len(synth); i++ {
			gaps = append(gaps, stats.LogDisplayValue(synth[i]-synth[i-1]))
		}
		ks, err := dist.KolmogorovSmirnov2(measured, gaps)
		if err != nil {
			b.Fatal(err)
		}
		return ks
	}
	b.ResetTimer()
	var ks900, ks4h float64
	for i := 0; i < b.N; i++ {
		ks900 = run(900, int64(i)+1)
		ks4h = run(4*3600, int64(i)+1)
	}
	b.ReportMetric(ks900, "ks_900s")
	b.ReportMetric(ks4h, "ks_4h")
}

// BenchmarkAblationConcurrencyResolution compares the exact 1-second
// concurrency sweep against coarse 15-minute averaging (A3): the metric
// is the relative peak underestimate of the binned view.
func BenchmarkAblationConcurrencyResolution(b *testing.B) {
	f := getFixture(b)
	iv := transferIntervals(f)
	b.ResetTimer()
	var exactPeak, binnedPeak float64
	for i := 0; i < b.N; i++ {
		rep, err := analyze.Concurrency(iv, f.tr.Horizon)
		if err != nil {
			b.Fatal(err)
		}
		exactPeak = float64(rep.Peak)
		binnedPeak = rep.Binned.Max()
	}
	b.ReportMetric((exactPeak-binnedPeak)/exactPeak*100, "peak_underestimate_pct")
}

// BenchmarkAblationZipfFitRange quantifies the sensitivity of the
// Figure 7 interest slope to rank-range truncation (A4): fitting only the
// top decade of ranks versus all ranks.
func BenchmarkAblationZipfFitRange(b *testing.B) {
	f := getFixture(b)
	byClient := f.tr.ByClient()
	counts := make([]int, byClient.Len())
	for k := range counts {
		counts[k] = len(byClient.Transfers(k))
	}
	full, err := dist.FitZipfCounts(counts)
	if err != nil {
		b.Fatal(err)
	}
	freq := stats.RankFrequencies(counts)
	b.ResetTimer()
	var top dist.ZipfFit
	for i := 0; i < b.N; i++ {
		n := len(freq) / 10
		if n < 10 {
			n = len(freq)
		}
		top, err = dist.FitZipfFrequencies(freq[:n])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(full.Alpha, "alpha_all_ranks")
	b.ReportMetric(top.Alpha, "alpha_top_decade")
}
