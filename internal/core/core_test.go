package core

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/sessions"
	"repro/internal/wmslog"
)

// runOnce caches a full pipeline run shared by the core tests.
var cachedReport *Report

func getReport(t *testing.T) *Report {
	t.Helper()
	if cachedReport != nil {
		return cachedReport
	}
	cfg, err := DefaultConfig(150, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cachedReport = rep
	return rep
}

func TestDefaultConfigValidates(t *testing.T) {
	cfg, err := DefaultConfig(100, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	cfg, err := DefaultConfig(100, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Model.NumClients = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad model: want error")
	}
	bad = cfg
	bad.Server.SpanningPerMillion = -1
	if err := bad.Validate(); err == nil {
		t.Error("bad server: want error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	rep := getReport(t)
	c := rep.Char

	if c.Basic.Objects != 2 {
		t.Errorf("objects = %d, want 2", c.Basic.Objects)
	}
	if c.Basic.Users < 100 {
		t.Errorf("users = %d", c.Basic.Users)
	}
	if c.Basic.Transfers <= c.Basic.Sessions {
		t.Errorf("transfers %d should exceed sessions %d", c.Basic.Transfers, c.Basic.Sessions)
	}
	if c.Basic.Days != 7 {
		t.Errorf("days = %d", c.Basic.Days)
	}
	if c.Timeout != 1500 {
		t.Errorf("timeout = %d, want the paper's 1500", c.Timeout)
	}
	if rep.Audit.TransferBelowFrac < 0.99 {
		t.Errorf("CPU audit = %+v, want unloaded server", rep.Audit)
	}
	if rep.Peak < 1 {
		t.Error("no peak concurrency")
	}
}

func TestRunSanitizesInjectedSpanning(t *testing.T) {
	cfg, err := DefaultConfig(300, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Server.SpanningPerMillion = 50000 // 5%: guaranteed injection
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sanitize.DroppedSpanning == 0 {
		t.Error("expected sanitization to drop injected spanning entries")
	}
}

func TestRoundTripRecoversTable2(t *testing.T) {
	rep := getReport(t)
	m := rep.Config.Model
	c := rep.Char

	// The headline validation: the characterization pipeline recovers
	// the Table 2 parameters the generator was instantiated with.
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"transfers/session alpha", c.Session.PerSessionFit.Alpha, m.TransfersPerSession.Alpha, 0.4},
		{"intra-session mu", c.Session.IntraFit.Mu, m.IntraSessionGap.Mu, 0.25},
		{"intra-session sigma", c.Session.IntraFit.Sigma, m.IntraSessionGap.Sigma, 0.25},
		{"transfer length mu", c.Transfer.LengthFit.Mu, m.TransferLength.Mu, 0.25},
		{"transfer length sigma", c.Transfer.LengthFit.Sigma, m.TransferLength.Sigma, 0.25},
	}
	for _, ck := range checks {
		if math.Abs(ck.got-ck.want) > ck.tol {
			t.Errorf("%s = %v, want %v +- %v", ck.name, ck.got, ck.want, ck.tol)
		}
	}
	// Interest profile skew present (Figure 7 duality).
	if c.Client.InterestSessions.Alpha < 0.15 {
		t.Errorf("sessions-per-client alpha = %v, want Zipf skew", c.Client.InterestSessions.Alpha)
	}
}

func TestPoissonReplicaMatches(t *testing.T) {
	rep := getReport(t)
	p := rep.Char.Figures.Poisson
	if len(p.Interarrivals) == 0 {
		t.Fatal("no Poisson replica generated")
	}
	// Figure 6 vs Figure 5: "surprisingly similar" distributions, with a
	// residual gap the paper's footnote 6 attributes to the diurnal mean
	// smoothing out day-to-day variability (our DayVariability + ramp-up)
	// — so close, but not arbitrarily close.
	if p.KS > 0.25 {
		t.Errorf("piecewise-Poisson KS = %v, want close match", p.KS)
	}
	if p.Window != 900 {
		t.Errorf("window = %d, want the paper's 900 s", p.Window)
	}
}

func TestTimeoutSweepShape(t *testing.T) {
	rep := getReport(t)
	sweep := rep.Char.Figures.Sweep
	if len(sweep) != len(DefaultTimeoutSweep) {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	// Monotone decreasing; knee: the relative drop beyond 1500 s is small.
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Sessions > sweep[i-1].Sessions {
			t.Fatal("sweep not monotone")
		}
	}
	var at1500, at4000 int
	for _, p := range sweep {
		if p.Timeout == 1500 {
			at1500 = p.Sessions
		}
		if p.Timeout == 4000 {
			at4000 = p.Sessions
		}
	}
	drop := float64(at1500-at4000) / float64(at1500)
	if drop > 0.1 {
		t.Errorf("sessions drop %.1f%% beyond T_o=1500, want the Figure 9 flattening", drop*100)
	}
}

func TestComparisonsCoverTable2(t *testing.T) {
	rep := getReport(t)
	comps := rep.Comparisons()
	if len(comps) < 11 {
		t.Fatalf("only %d comparisons", len(comps))
	}
	wantQuantities := []string{
		"client interest alpha (transfers/client)",
		"client interest alpha (sessions/client)",
		"transfers/session Zipf alpha",
		"intra-session gap lognormal mu",
		"transfer length lognormal mu",
		"congestion-bound transfer fraction",
	}
	have := map[string]bool{}
	for _, c := range comps {
		have[c.Quantity] = true
	}
	for _, q := range wantQuantities {
		if !have[q] {
			t.Errorf("missing comparison %q", q)
		}
	}
	// Round-trip quantities must be close to the paper values.
	for _, c := range comps {
		switch c.Quantity {
		case "transfers/session Zipf alpha", "intra-session gap lognormal mu",
			"transfer length lognormal mu", "transfer length lognormal sigma":
			if c.RelErr() > 0.2 {
				t.Errorf("%s rel err = %.1f%%", c.Quantity, c.RelErr()*100)
			}
		}
	}
}

func TestTable1Renders(t *testing.T) {
	rep := getReport(t)
	tbl := rep.Table1()
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "live objects", "691,889", "sessions"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFiguresComplete(t *testing.T) {
	rep := getReport(t)
	figs := rep.Char.Plots()
	wantIDs := []string{
		"fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
		"fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20",
	}
	have := map[string]Figure{}
	for _, f := range figs {
		have[f.ID] = f
	}
	for _, id := range wantIDs {
		f, ok := have[id]
		if !ok {
			t.Errorf("missing figure %s", id)
			continue
		}
		if len(f.Series) == 0 {
			t.Errorf("figure %s has no series", id)
		}
		for _, s := range f.Series {
			// Weekly folds may be empty for short traces, everything else
			// must carry data.
			if len(s.Points) == 0 && !strings.Contains(s.Name, "week") {
				t.Errorf("figure %s series %s is empty", id, s.Name)
			}
		}
	}
}

func TestFmtInt(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"}, {5, "5"}, {999, "999"}, {1000, "1,000"},
		{691889, "691,889"}, {5500000, "5,500,000"}, {-1234, "-1,234"},
	}
	for _, c := range cases {
		if got := fmtInt(c.in); got != c.want {
			t.Errorf("fmtInt(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg, err := DefaultConfig(500, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Char.Basic != b.Char.Basic {
		t.Errorf("non-deterministic basic stats: %+v vs %+v", a.Char.Basic, b.Char.Basic)
	}
	if a.Char.Transfer.LengthFit != b.Char.Transfer.LengthFit {
		t.Error("non-deterministic fits")
	}
}

// TestObserveLogsRejectsDuplicateDay: a log directory that keeps a day
// both as the original and as its ".gz" copy does not load — it used to
// load that day twice, silently.
func TestObserveLogsRejectsDuplicateDay(t *testing.T) {
	dir := t.TempDir()
	files := writeGenLogs(t, dir, 500, 2, 5)
	if _, _, err := ObserveLogs(dir, 2, sessions.DefaultTimeout, nil, io.Discard); err != nil {
		t.Fatalf("each day once: %v", err)
	}
	second := files[1]
	data, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wmslog.CompressFile(second); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(second, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if char, _, err := ObserveLogs(dir, 2, sessions.DefaultTimeout, nil, &out); char != nil || err == nil || !strings.Contains(err.Error(), "2002-01-07") {
		t.Fatalf("day 2002-01-07 twice: characterization %v, err %v, output %q; want an error naming the day", char != nil, err, out.String())
	}
}
