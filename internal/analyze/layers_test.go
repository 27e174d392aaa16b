package analyze

import (
	"math"
	"testing"

	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// buildFixture generates, serves, sanitizes and sessionizes a test-scale
// workload once for the layer tests.
type fixture struct {
	model gismo.Model
	tr    *trace.Trace
	set   *sessions.Set
}

var cachedFixture *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if cachedFixture != nil {
		return cachedFixture
	}
	m, err := gismo.Scaled(150, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig()
	cfg.SpanningPerMillion = 0
	res, err := simulate.Run(w, cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := res.Trace.Sanitize()
	set, err := sessions.Sessionize(clean, sessions.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	cachedFixture = &fixture{model: m, tr: clean, set: set}
	return cachedFixture
}

func TestClientLayer(t *testing.T) {
	f := getFixture(t)
	cl, err := AnalyzeClientLayer(f.set)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Concurrency.Peak < 1 {
		t.Error("no concurrency")
	}
	if len(cl.Interarrivals) == 0 {
		t.Fatal("no interarrivals")
	}
	for _, a := range cl.Interarrivals {
		if a < 0 {
			t.Fatal("negative interarrival")
		}
	}
	// Interest profile: Zipf-like skew must be present and fits must be
	// plausible.
	if cl.InterestSessions.Alpha <= 0 || cl.InterestTransfers.Alpha <= 0 {
		t.Errorf("interest fits: sessions=%+v transfers=%+v",
			cl.InterestSessions, cl.InterestTransfers)
	}
	if cl.InterestTransfers.Alpha < cl.InterestSessions.Alpha {
		t.Errorf("transfers-per-client skew (%v) should be at least the sessions-per-client skew (%v), as in Figure 7",
			cl.InterestTransfers.Alpha, cl.InterestSessions.Alpha)
	}
	if len(cl.TransfersPerClient) == 0 || len(cl.SessionsPerClient) == 0 {
		t.Error("missing per-client counts")
	}
}

func TestClientLayerDiurnalACF(t *testing.T) {
	f := getFixture(t)
	cl, err := AnalyzeClientLayer(f.set)
	if err != nil {
		t.Fatal(err)
	}
	acf := cl.Concurrency.ACF()
	if len(acf) < 1441 {
		t.Fatalf("ACF too short: %d", len(acf))
	}
	// Figure 8: peak near lag 1440 minutes, clearly above the half-day
	// trough. The fixture's per-day audience variability (DayVariability)
	// keeps the one-day peak modest on a 7-day horizon — across seeds it
	// ranges roughly 0.2–0.35 — so assert the structure, not a
	// knife-edge level: a clearly positive daily peak over a negative
	// half-day trough.
	if acf[1440] < 0.15 {
		t.Errorf("ACF(1440) = %v, want clear daily correlation", acf[1440])
	}
	if acf[1440] <= acf[720]+0.2 {
		t.Errorf("ACF(1440)=%v should clearly exceed ACF(720)=%v", acf[1440], acf[720])
	}
}

func TestSessionLayer(t *testing.T) {
	f := getFixture(t)
	sl, err := AnalyzeSessionLayer(f.set)
	if err != nil {
		t.Fatal(err)
	}
	// Session ON times: the generator composes them from Zipf transfer
	// counts and lognormal gaps/lengths, so the fitted body should be a
	// plausible lognormal (Figure 11's message), not a precise recovery.
	if sl.OnFit.Sigma <= 0.5 || sl.OnFit.Sigma > 3 {
		t.Errorf("ON sigma = %v, want high variability", sl.OnFit.Sigma)
	}
	if sl.OnKS > 0.2 {
		t.Errorf("ON lognormal KS = %v, body fit too poor", sl.OnKS)
	}
	// Transfers per session: recover the model's Zipf alpha = 2.70417.
	if math.Abs(sl.PerSessionFit.Alpha-f.model.TransfersPerSession.Alpha) > 0.4 {
		t.Errorf("per-session alpha = %v, want ~%v",
			sl.PerSessionFit.Alpha, f.model.TransfersPerSession.Alpha)
	}
	// Intra-session interarrivals: recover lognormal(4.900, 1.321).
	if math.Abs(sl.IntraFit.Mu-f.model.IntraSessionGap.Mu) > 0.25 {
		t.Errorf("intra mu = %v, want ~%v", sl.IntraFit.Mu, f.model.IntraSessionGap.Mu)
	}
	if math.Abs(sl.IntraFit.Sigma-f.model.IntraSessionGap.Sigma) > 0.25 {
		t.Errorf("intra sigma = %v, want ~%v", sl.IntraFit.Sigma, f.model.IntraSessionGap.Sigma)
	}
	// Session OFF times: exponential fit exists with a large mean.
	if len(sl.OffTimes) > 0 && sl.OffFit.MeanValue <= 0 {
		t.Error("OFF fit missing")
	}
	// Figure 10: weak hour-of-day correlation.
	if sl.OnHourR2 > 0.1 {
		t.Errorf("ON-vs-hour R2 = %v, want weak (Figure 10)", sl.OnHourR2)
	}
}

func TestSessionLayerOnByHourPopulated(t *testing.T) {
	f := getFixture(t)
	sl, err := AnalyzeSessionLayer(f.set)
	if err != nil {
		t.Fatal(err)
	}
	var nonzero int
	for _, v := range sl.OnByHour {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < 12 {
		t.Errorf("only %d hours have ON-time data", nonzero)
	}
}

func TestTransferLayer(t *testing.T) {
	f := getFixture(t)
	tl, err := AnalyzeTransferLayer(f.tr)
	if err != nil {
		t.Fatal(err)
	}
	// Transfer lengths: recover lognormal(4.384, 1.427).
	if math.Abs(tl.LengthFit.Mu-f.model.TransferLength.Mu) > 0.25 {
		t.Errorf("length mu = %v, want ~%v", tl.LengthFit.Mu, f.model.TransferLength.Mu)
	}
	if math.Abs(tl.LengthFit.Sigma-f.model.TransferLength.Sigma) > 0.25 {
		t.Errorf("length sigma = %v, want ~%v", tl.LengthFit.Sigma, f.model.TransferLength.Sigma)
	}
	if tl.LengthKS > 0.1 {
		t.Errorf("length KS = %v", tl.LengthKS)
	}
	// Interarrivals present and non-negative (display >= 1).
	if len(tl.Interarrivals) == 0 {
		t.Fatal("no interarrivals")
	}
	for _, a := range tl.Interarrivals {
		if a < 1 {
			t.Fatalf("display interarrival %v < 1", a)
		}
	}
	// Bandwidth: bimodal with ~10% congestion-bound (Figure 20).
	if len(tl.BandwidthModes) < 3 {
		t.Errorf("detected %d bandwidth modes, want several access-speed spikes", len(tl.BandwidthModes))
	}
	if tl.CongestionFrac < 0.04 || tl.CongestionFrac > 0.16 {
		t.Errorf("congestion fraction = %v, want ~0.10", tl.CongestionFrac)
	}
	if tl.Concurrency.Peak < 1 {
		t.Error("no transfer concurrency")
	}
}

func TestTransferLayerTemporalInterarrivals(t *testing.T) {
	f := getFixture(t)
	tl, err := AnalyzeTransferLayer(f.tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.InterarrivalDay.Values) != 96 {
		t.Fatalf("day fold bins = %d", len(tl.InterarrivalDay.Values))
	}
	// Figure 18 (right): interarrivals in the 5–11 am trough are longer
	// than in the evening peak.
	var trough, evening float64
	var nt, ne int
	for h := 5; h < 11; h++ {
		for q := 0; q < 4; q++ {
			v := tl.InterarrivalDay.Values[h*4+q]
			if v > 0 {
				trough += v
				nt++
			}
		}
	}
	for h := 19; h < 23; h++ {
		for q := 0; q < 4; q++ {
			v := tl.InterarrivalDay.Values[h*4+q]
			if v > 0 {
				evening += v
				ne++
			}
		}
	}
	if nt == 0 || ne == 0 {
		t.Skip("insufficient bins with data")
	}
	trough /= float64(nt)
	evening /= float64(ne)
	if trough <= evening {
		t.Errorf("trough interarrival %v should exceed evening %v", trough, evening)
	}
}

func TestDiversity(t *testing.T) {
	f := getFixture(t)
	d, err := AnalyzeDiversity(f.tr)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumAS < 10 {
		t.Errorf("NumAS = %d", d.NumAS)
	}
	if len(d.ASTransferShare) != d.NumAS {
		t.Errorf("transfer share length %d != NumAS %d", len(d.ASTransferShare), d.NumAS)
	}
	// Shares descending, sum to 1.
	var sum float64
	for i, s := range d.ASTransferShare {
		sum += s
		if i > 0 && s > d.ASTransferShare[i-1] {
			t.Fatal("AS shares not descending")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("AS transfer shares sum to %v", sum)
	}
	if d.CountryShare["BR"] < 0.9 {
		t.Errorf("BR share = %v, want dominant", d.CountryShare["BR"])
	}
	var csum float64
	for _, s := range d.CountryShare {
		csum += s
	}
	if math.Abs(csum-1) > 1e-9 {
		t.Errorf("country shares sum to %v", csum)
	}
}

func TestAnalyzeEmptyInputs(t *testing.T) {
	tr, err := trace.New(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeTransferLayer(tr); err == nil {
		t.Error("empty trace: want error")
	}
	if _, err := AnalyzeDiversity(tr); err == nil {
		t.Error("empty trace: want error")
	}
	set, err := sessions.Sessionize(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeClientLayer(set); err == nil {
		t.Error("empty session set: want error")
	}
	if _, err := AnalyzeSessionLayer(set); err == nil {
		t.Error("empty session set: want error")
	}
}

func TestOffRipples(t *testing.T) {
	sl := &SessionLayer{OffTimes: []float64{
		86000, 86400, 86800, // ~1 day
		172800,         // 2 days
		259200, 260000, // ~3 days
		5000, 40000, // noise
	}}
	r := sl.OffRipples(3, 3600)
	if r[0] < 0.3 {
		t.Errorf("day-1 ripple share = %v", r[0])
	}
	if r[1] <= 0 || r[2] <= 0 {
		t.Errorf("ripples = %v", r)
	}
	empty := &SessionLayer{}
	if got := empty.OffRipples(2, 100); len(got) != 2 || got[0] != 0 {
		t.Errorf("empty ripples = %v", got)
	}
}

func TestInterarrivalDisplay(t *testing.T) {
	got := InterarrivalDisplay([]float64{0, 0.5, 1, 2.9})
	want := []float64{1, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("display[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
