package core

import (
	"repro/internal/report"
)

// Paper holds the values reported by Veloso et al. (IMC 2002), used for
// the paper-versus-measured comparisons in EXPERIMENTS.md.
var Paper = struct {
	// Table 1.
	Days      int
	Objects   int
	ASes      int
	IPs       int
	Users     int
	Sessions  int
	Transfers int
	TBytes    float64

	// Figure 7: client interest Zipf slopes.
	InterestTransfersAlpha float64
	InterestSessionsAlpha  float64

	// Figure 11: session ON lognormal.
	SessionOnMu, SessionOnSigma float64

	// Figure 12: session OFF exponential mean (seconds).
	SessionOffMean float64

	// Figure 13: transfers-per-session Zipf slope.
	PerSessionAlpha float64

	// Figure 14: intra-session interarrival lognormal.
	IntraMu, IntraSigma float64

	// Figure 17: two-regime transfer interarrival tail indices.
	TailBodyAlpha, TailFarAlpha float64

	// Figure 19: transfer length lognormal.
	LengthMu, LengthSigma float64

	// Figure 20 / Section 5.4: congestion-bound share of transfers.
	CongestionFrac float64

	// Section 2.4: server CPU below 10% for this fraction of time and of
	// transfers.
	CPUBelowTimeFrac     float64
	CPUBelowTransferFrac float64

	// Figure 9: the T_o beyond which the session count flattens.
	TimeoutKnee int64
}{
	Days:      28,
	Objects:   2,
	ASes:      1010,
	IPs:       364184,
	Users:     691889,
	Sessions:  1500000,
	Transfers: 5500000,
	TBytes:    8,

	InterestTransfersAlpha: 0.719395,
	InterestSessionsAlpha:  0.470438,

	SessionOnMu:    5.23553,
	SessionOnSigma: 1.54432,

	SessionOffMean: 203150,

	PerSessionAlpha: 2.70417,

	IntraMu:    4.89991,
	IntraSigma: 1.32074,

	TailBodyAlpha: 2.8,
	TailFarAlpha:  1.0,

	LengthMu:    4.383921,
	LengthSigma: 1.427247,

	CongestionFrac: 0.10,

	CPUBelowTimeFrac:     0.9999,
	CPUBelowTransferFrac: 0.99,

	TimeoutKnee: 1500,
}

// Comparisons builds the paper-versus-measured rows for every fitted
// quantity — the backbone of EXPERIMENTS.md. Scale-dependent Table 1
// counts are annotated rather than compared numerically.
func (r *Report) Comparisons() []report.Comparison {
	c := r.Char
	out := []report.Comparison{
		{Experiment: "Figure 7L", Quantity: "client interest alpha (transfers/client)",
			Paper: Paper.InterestTransfersAlpha, Measured: c.Figures.Client.InterestTransfers.Alpha,
			Note: "Zipf log-log slope"},
		{Experiment: "Figure 7R", Quantity: "client interest alpha (sessions/client)",
			Paper: Paper.InterestSessionsAlpha, Measured: c.Client.InterestSessions.Alpha,
			Note: "Zipf log-log slope"},
		{Experiment: "Figure 11", Quantity: "session ON lognormal mu",
			Paper: Paper.SessionOnMu, Measured: c.Session.OnFit.Mu,
			Note: "emergent from Zipf counts x lognormal gaps/lengths"},
		{Experiment: "Figure 11", Quantity: "session ON lognormal sigma",
			Paper: Paper.SessionOnSigma, Measured: c.Session.OnFit.Sigma,
			Note: "emergent"},
		{Experiment: "Figure 13", Quantity: "transfers/session Zipf alpha",
			Paper: Paper.PerSessionAlpha, Measured: c.Session.PerSessionFit.Alpha,
			Note: "model round trip"},
		{Experiment: "Figure 14", Quantity: "intra-session gap lognormal mu",
			Paper: Paper.IntraMu, Measured: c.Session.IntraFit.Mu,
			Note: "model round trip"},
		{Experiment: "Figure 14", Quantity: "intra-session gap lognormal sigma",
			Paper: Paper.IntraSigma, Measured: c.Session.IntraFit.Sigma,
			Note: "model round trip"},
		{Experiment: "Figure 19", Quantity: "transfer length lognormal mu",
			Paper: Paper.LengthMu, Measured: c.Transfer.LengthFit.Mu,
			Note: "model round trip"},
		{Experiment: "Figure 19", Quantity: "transfer length lognormal sigma",
			Paper: Paper.LengthSigma, Measured: c.Transfer.LengthFit.Sigma,
			Note: "model round trip"},
		{Experiment: "Figure 20", Quantity: "congestion-bound transfer fraction",
			Paper: Paper.CongestionFrac, Measured: c.Figures.Transfer.CongestionFrac,
			Note: "bimodal bandwidth"},
		{Experiment: "Section 2.4", Quantity: "fraction of transfers below 10% CPU",
			Paper: Paper.CPUBelowTransferFrac, Measured: r.Audit.TransferBelowFrac,
			Note: "lower bound in paper"},
	}
	if c.Figures.Transfer.TailBody.Points > 0 {
		out = append(out, report.Comparison{
			Experiment: "Figure 17", Quantity: "interarrival tail alpha (<= 100 s)",
			Paper: Paper.TailBodyAlpha, Measured: c.Figures.Transfer.TailBody.Alpha,
			Note: "power-law CCDF regression"})
	}
	if c.Figures.Transfer.TailFar.Points > 0 {
		out = append(out, report.Comparison{
			Experiment: "Figure 17", Quantity: "interarrival tail alpha (> 100 s)",
			Paper: Paper.TailFarAlpha, Measured: c.Figures.Transfer.TailFar.Alpha,
			Note: "power-law CCDF regression"})
	}
	if len(c.Session.OffTimes) > 0 {
		out = append(out, report.Comparison{
			Experiment: "Figure 12", Quantity: "session OFF exponential mean (s)",
			Paper: Paper.SessionOffMean, Measured: c.Figures.Session.OffFit.MeanValue,
			Note: "scale-dependent: shorter horizon compresses OFF times"})
	}
	return out
}

// Table1 renders the Basic statistics as the paper's Table 1 with the
// paper's values alongside.
func (r *Report) Table1() *report.Table {
	b := r.Char.Basic
	t := &report.Table{
		Title:   "Table 1: Basic statistics of the trace",
		Headers: []string{"Metric", "Measured", "Paper"},
	}
	t.AddRow("Log period (days)", itoa(b.Days), itoa(Paper.Days))
	t.AddRow("Total # of live objects", itoa(b.Objects), itoa(Paper.Objects))
	t.AddRow("Total # of client ASs", itoa(b.ASes), itoa(Paper.ASes))
	t.AddRow("Total # of client IPs", itoa(b.IPs), itoa(Paper.IPs))
	t.AddRow("Total # of users", itoa(b.Users), itoa(Paper.Users))
	t.AddRow("Total # of sessions", itoa(b.Sessions), "> "+itoa(Paper.Sessions))
	t.AddRow("Total # of transfers", itoa(b.Transfers), "> "+itoa(Paper.Transfers))
	t.AddRow("Total content served (GB)", itoa(int(b.TotalBytes/1e9)), "> 8000")
	return t
}

func itoa(v int) string { return fmtInt(int64(v)) }

// fmtInt renders an integer with thousands separators, matching the
// paper's "691,889" style.
func fmtInt(v int64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	s := ""
	for v >= 1000 {
		s = "," + pad3(v%1000) + s
		v /= 1000
	}
	s = digits(v) + s
	if neg {
		return "-" + s
	}
	return s
}

func pad3(v int64) string {
	d := digits(v)
	for len(d) < 3 {
		d = "0" + d
	}
	return d
}

func digits(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
