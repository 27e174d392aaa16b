package calibrate

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/report"
	"repro/internal/stats"
)

// DefaultAlpha is the significance level of the per-layer KS tests. At
// trace-scale sample sizes the KS test has power to reject on tiny
// distributional differences, so the loop tests at 1% rather than 5%.
const DefaultAlpha = 0.01

// KSCheck is one two-sample Kolmogorov–Smirnov test between a source
// layer and its twin.
type KSCheck struct {
	// Layer names the compared quantity, e.g. "session/intra-gaps".
	Layer string
	// D is the two-sample KS statistic.
	D float64
	// Critical is the rejection threshold at the report's alpha:
	// c(alpha) * sqrt((n+m)/(n*m)).
	Critical float64
	// N and M are the source and twin sample sizes.
	N, M int
	// Reject is D > Critical.
	Reject bool
	// Skipped marks a layer with an empty sample on either side; the
	// test carries no verdict.
	Skipped bool
}

// String renders the check as one report line.
func (k KSCheck) String() string {
	if k.Skipped {
		return fmt.Sprintf("%-28s skipped (n=%d, m=%d)", k.Layer, k.N, k.M)
	}
	verdict := "ok"
	if k.Reject {
		verdict = "REJECT"
	}
	return fmt.Sprintf("%-28s D=%.4f critical=%.4f (n=%d, m=%d) %s", k.Layer, k.D, k.Critical, k.N, k.M, verdict)
}

// ValidationReport is the layer-by-layer verdict on a twin: KS tests
// over every fitted marginal plus a Table-2-style source-versus-twin
// comparison of the recovered parameters and headline counts.
type ValidationReport struct {
	// Alpha is the significance level the critical values are at.
	Alpha float64
	// Checks holds one KS test per compared layer.
	Checks []KSCheck
	// Comparison holds the fitted-versus-source scalar rows (Paper
	// field = source, Measured field = twin).
	Comparison []report.Comparison
}

// Rejections returns the checks whose KS test rejected.
func (r *ValidationReport) Rejections() []KSCheck {
	var out []KSCheck
	for _, c := range r.Checks {
		if c.Reject {
			out = append(out, c)
		}
	}
	return out
}

// Render writes the full report: the KS table then the comparison
// table.
func (r *ValidationReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Two-sample KS tests (alpha %.2g):\n", r.Alpha); err != nil {
		return err
	}
	for _, c := range r.Checks {
		if _, err := fmt.Fprintf(w, "  %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return report.ComparisonTable(w, "Source vs twin (Table 2 recovery):", "Source", "Twin", r.Comparison)
}

// ksCritical is the large-sample two-sample KS rejection threshold at
// significance alpha: c(alpha) * sqrt((n+m)/(n*m)).
func ksCritical(alpha float64, n, m int) float64 {
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/(float64(n)*float64(m)))
}

// check runs one two-sample KS test, skipping empty sides.
func check(layer string, alpha float64, src, twin []float64) KSCheck {
	k := KSCheck{Layer: layer, N: len(src), M: len(twin)}
	if len(src) == 0 || len(twin) == 0 {
		k.Skipped = true
		return k
	}
	d, err := dist.KolmogorovSmirnov2(src, twin)
	if err != nil {
		k.Skipped = true
		return k
	}
	k.D = d
	k.Critical = ksCritical(alpha, k.N, k.M)
	k.Reject = d > k.Critical
	return k
}

// ksLayers are the compared marginals, in report order: each reads its
// sample off a characterization the same way for source and twin.
// Interarrival-style quantities compare in the paper's ⌊t+1⌋ display
// form, matching how their fits were estimated. The layers store every
// float sample in that form and sorted, so the KS tests read them in
// place; only the integer transfers-per-session counts are widened and
// sorted here.
var ksLayers = []struct {
	name   string
	sample func(c *core.Characterization) []float64
}{
	{"client/interarrivals", func(c *core.Characterization) []float64 { return c.Client.Interarrivals }},
	{"session/on-times", func(c *core.Characterization) []float64 { return c.Session.OnTimes }},
	{"session/off-times", func(c *core.Characterization) []float64 { return c.Session.OffTimes }},
	{"session/transfers", func(c *core.Characterization) []float64 {
		return stats.SortedFloats(c.Session.TransfersPerSession)
	}},
	{"session/intra-gaps", func(c *core.Characterization) []float64 { return c.Session.IntraArrivals }},
	{"transfer/lengths", func(c *core.Characterization) []float64 { return c.Transfer.Lengths }},
	{"transfer/interarrivals", func(c *core.Characterization) []float64 { return c.Transfer.Interarrivals }},
}

// Validate compares a twin characterization against its source layer by
// layer: a two-sample KS test per fitted marginal (ksLayers), plus
// source-versus-twin comparison rows over the recovered Table 2
// parameters and the headline counts. The KS tests only read the two
// characterizations, so they run concurrently, each into its own slot
// of Checks: the report does not depend on the schedule.
func Validate(source, twin *core.Characterization) ValidationReport {
	rep := ValidationReport{Alpha: DefaultAlpha, Checks: make([]KSCheck, len(ksLayers))}
	var wg sync.WaitGroup
	for i, l := range ksLayers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.Checks[i] = check(l.name, rep.Alpha, l.sample(source), l.sample(twin))
		}()
	}
	wg.Wait()

	cmp := func(layer, quantity string, src, tw float64, note string) {
		rep.Comparison = append(rep.Comparison, report.Comparison{
			Experiment: layer, Quantity: quantity, Paper: src, Measured: tw, Note: note,
		})
	}
	cmp("basic", "clients", float64(source.Basic.Users), float64(twin.Basic.Users), "Table 1")
	cmp("basic", "sessions", float64(source.Basic.Sessions), float64(twin.Basic.Sessions), "Table 1")
	cmp("basic", "transfers", float64(source.Basic.Transfers), float64(twin.Basic.Transfers), "Table 1")
	cmp("client", "peak concurrent clients", float64(source.Client.Concurrency.Peak), float64(twin.Client.Concurrency.Peak), "Figure 3")
	cmp("client", "interest Zipf alpha", source.Client.InterestSessions.Alpha, twin.Client.InterestSessions.Alpha, "Figure 7, Table 2")
	cmp("session", "ON lognormal mu", source.Session.OnFit.Mu, twin.Session.OnFit.Mu, "Figure 11")
	cmp("session", "ON lognormal sigma", source.Session.OnFit.Sigma, twin.Session.OnFit.Sigma, "Figure 11")
	cmp("session", "transfers/session alpha", source.Session.PerSessionFit.Alpha, twin.Session.PerSessionFit.Alpha, "Figure 13, Table 2")
	cmp("session", "intra-gap lognormal mu", source.Session.IntraFit.Mu, twin.Session.IntraFit.Mu, "Figure 14, Table 2")
	cmp("session", "intra-gap lognormal sigma", source.Session.IntraFit.Sigma, twin.Session.IntraFit.Sigma, "Figure 14, Table 2")
	cmp("transfer", "length lognormal mu", source.Transfer.LengthFit.Mu, twin.Transfer.LengthFit.Mu, "Figure 19, Table 2")
	cmp("transfer", "length lognormal sigma", source.Transfer.LengthFit.Sigma, twin.Transfer.LengthFit.Sigma, "Figure 19, Table 2")
	cmp("transfer", "peak concurrent transfers", float64(source.Transfer.Concurrency.Peak), float64(twin.Transfer.Concurrency.Peak), "Figure 15")
	return rep
}
