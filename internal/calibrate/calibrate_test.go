package calibrate

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// buildSource generates a workload from a known model, serves it, and
// observes the result — the ground truth the round-trip tests fit
// against.
func buildSource(t *testing.T) (*core.Characterization, gismo.Model) {
	t.Helper()
	clean, truth := sourceTrace(t)
	char, err := core.Observe(clean, 1500)
	if err != nil {
		t.Fatal(err)
	}
	return char, truth
}

// sourceTrace generates and serves the known model behind buildSource
// and returns the sanitized trace with the model.
func sourceTrace(t *testing.T) (*trace.Trace, gismo.Model) {
	t.Helper()
	truth, err := gismo.Scaled(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	return servedTrace(t, truth, 11), truth
}

// servedTrace is the trace m's workload from seed leaves in the default
// server's log, sanitized: the materialized workload served
// (simulate.Run), its rows built into a trace, then sanitized.
func servedTrace(t *testing.T, m gismo.Model, seed int64) *trace.Trace {
	t.Helper()
	w, err := gismo.GenerateSeeded(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(w, simulate.DefaultConfig(), uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := res.Trace.Sanitize()
	return clean
}

// TestObserveMatchesCharacterize: Observe is Characterize without the
// figure material, at every core count. On a source trace and on its
// twin's, Observe leaves Figures nil and every other field deep-equals
// Characterize's; Fit gives the same model and report from either
// source characterization, and Validate the same report from either
// pair.
func TestObserveMatchesCharacterize(t *testing.T) {
	src, _ := sourceTrace(t)
	m, _ := Fit(observe(t, src))
	tw := servedTrace(t, m, 11)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var observed, characterized [2]*core.Characterization
			for i, tr := range []*trace.Trace{src, tw} {
				observed[i] = observe(t, tr)
				full, err := core.Characterize(tr, 1500, nil, 11)
				if err != nil {
					t.Fatal(err)
				}
				if observed[i].Figures != nil || full.Figures == nil {
					t.Fatalf("trace %d: Figures is %p after Observe, %p after Characterize; want nil, non-nil", i, observed[i].Figures, full.Figures)
				}
				characterized[i] = full
				coreOnly := *full
				coreOnly.Figures = nil
				if !reflect.DeepEqual(observed[i], &coreOnly) {
					t.Errorf("trace %d: Observe's core differs from Characterize's", i)
				}
			}
			om, orep := Fit(observed[0])
			cm, crep := Fit(characterized[0])
			if !reflect.DeepEqual(om, cm) || !reflect.DeepEqual(orep, crep) {
				t.Error("Fit differs between Observe and Characterize")
			}
			if ov, cv := Validate(observed[0], observed[1]), Validate(characterized[0], characterized[1]); !reflect.DeepEqual(ov, cv) {
				t.Error("Validate differs between Observe and Characterize")
			}
		})
	}
}

// observe is core.Observe at the calibration tests' timeout.
func observe(t *testing.T, tr *trace.Trace) *core.Characterization {
	t.Helper()
	char, err := core.Observe(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	return char
}

// within asserts |got - want| / |want| <= tol.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > tol {
		t.Errorf("%s = %.4f, want %.4f within %.0f%% (off by %.1f%%)",
			name, got, want, tol*100, rel*100)
	}
}

// TestFitRecoversKnownParameters is the self-calibration round trip:
// parameters fitted from a synthetic trace must land within documented
// tolerance of the generating model. Tolerances reflect estimation
// noise at this test's scale (a few thousand transfers), not fit bias:
// the lognormal laws recover tightly, the Zipf exponents carry the
// finite-sample spread of log-log regression on a few hundred ranks,
// and the interest alpha is the loosest because light clients dominate
// the rank tail (the paper fits it over 691,889 clients; this trace has
// under a thousand).
func TestFitRecoversKnownParameters(t *testing.T) {
	char, truth := buildSource(t)
	m, rep := Fit(char)
	if err := m.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}

	if m.Horizon != truth.Horizon {
		t.Errorf("horizon = %d, want %d", m.Horizon, truth.Horizon)
	}
	if m.NumClients != char.Basic.Users {
		t.Errorf("clients = %d, want %d", m.NumClients, char.Basic.Users)
	}
	if m.NumObjects != truth.NumObjects {
		t.Errorf("objects = %d, want %d", m.NumObjects, truth.NumObjects)
	}

	within(t, "intra-session gap mu", m.IntraSessionGap.Mu, truth.IntraSessionGap.Mu, 0.10)
	within(t, "intra-session gap sigma", m.IntraSessionGap.Sigma, truth.IntraSessionGap.Sigma, 0.25)
	within(t, "transfer length mu", m.TransferLength.Mu, truth.TransferLength.Mu, 0.10)
	within(t, "transfer length sigma", m.TransferLength.Sigma, truth.TransferLength.Sigma, 0.10)
	within(t, "transfers/session alpha", m.TransfersPerSession.Alpha, truth.TransfersPerSession.Alpha, 0.30)
	within(t, "feed preference", m.FeedPreference, truth.FeedPreference, 0.15)
	if m.Interest.Alpha <= 0 || m.Interest.Alpha > 2*truth.Interest.Alpha {
		t.Errorf("interest alpha = %.4f, want in (0, %.4f]", m.Interest.Alpha, 2*truth.Interest.Alpha)
	}

	// The arrival-rate calibration is exact by construction: the fitted
	// process's expected session count equals the observed one.
	within(t, "expected sessions", rep.ExpectedSessions, float64(rep.SourceSessions), 0.01)
	if rep.ProfileDays != 3 {
		t.Errorf("profile days = %d, want 3", rep.ProfileDays)
	}
}

// TestTwinPassesValidation closes the loop: a twin regenerated from the
// fitted model must be statistically indistinguishable from its source
// at alpha 0.01 on every tested layer.
func TestTwinPassesValidation(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	twin, err := Twin(m, 11, 1500)
	if err != nil {
		t.Fatal(err)
	}
	rep := Validate(char, twin)
	if rejects := rep.Rejections(); len(rejects) > 0 {
		for _, r := range rejects {
			t.Errorf("KS rejects: %s", r)
		}
	}
	var ran int
	for _, c := range rep.Checks {
		if !c.Skipped {
			ran++
		}
	}
	if ran < 6 {
		t.Errorf("only %d KS tests ran, want >= 6", ran)
	}
	if len(rep.Comparison) == 0 {
		t.Error("empty comparison table")
	}
}

// TestTwinDeterministic: equal (model, seed) pairs twin identically.
func TestTwinDeterministic(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	a, err := Twin(m, 3, 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Twin(m, 3, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if a.Basic != b.Basic {
		t.Errorf("twin basics differ: %+v vs %+v", a.Basic, b.Basic)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("twin characterizations differ")
	}
}

// TestValidationReportGolden pins the rendered fitted-vs-source report.
// The whole loop is a pure function of the seeds, so the bytes are
// stable; regenerate with UPDATE_GOLDEN=1 go test ./internal/calibrate.
func TestValidationReportGolden(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	twin, err := Twin(m, 11, 1500)
	if err != nil {
		t.Fatal(err)
	}
	rep := Validate(char, twin)
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "validation_report.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.String(), want)
	}
}

// TestFitDegenerateFallbacks: an impoverished characterization (empty
// layers, no arrival series) still yields a model that validates, with
// every fallback recorded in the notes.
func TestFitDegenerateFallbacks(t *testing.T) {
	char := &core.Characterization{
		Horizon:  86400,
		Client:   &analyze.ClientLayer{},
		Session:  &analyze.SessionLayer{},
		Transfer: &analyze.TransferLayer{},
		Divers:   &analyze.Diversity{},
	}
	m, rep := Fit(char)
	if err := m.Validate(); err != nil {
		t.Fatalf("degenerate fit does not validate: %v", err)
	}
	paper := gismo.Default()
	if m.Interest.Alpha != paper.Interest.Alpha {
		t.Errorf("interest alpha = %v, want paper default %v", m.Interest.Alpha, paper.Interest.Alpha)
	}
	if m.IntraSessionGap != paper.IntraSessionGap {
		t.Errorf("intra-session gap = %+v, want paper default", m.IntraSessionGap)
	}
	if len(rep.Notes) < 5 {
		t.Errorf("only %d notes for a fully degenerate fit: %v", len(rep.Notes), rep.Notes)
	}
}
