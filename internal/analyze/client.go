package analyze

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/sessions"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ClientLayer is the Section 3 characterization as the calibration loop
// reads it: the client population's concurrency profile, interarrival
// process, and session-interest profile. The figure-only remainder is
// ClientFigures (DescribeClientLayer).
type ClientLayer struct {
	// Concurrency is c(t), the number of clients with an ongoing session
	// (Figures 3, 4 and 8).
	Concurrency *ConcurrencyReport

	// Interarrivals are the gaps a(i) = t(i+1) - t(i) between session
	// arrivals of different clients (Figure 5), in the ⌊t+1⌋ display form
	// and sorted ascending: all three readers — the Figure 6 Poisson
	// replica, the Figure 5 ECDF and calibrate.Validate — take that form
	// and none the arrival order. Zero gaps are kept (they display as 1).
	Interarrivals []float64

	// SessionsPerClient is the per-client session count behind the
	// interest profile, in ascending client-id order.
	SessionsPerClient []int

	// InterestSessions is the Zipf fit of session frequency versus client
	// rank (Figure 7 right; paper: α = 0.4704).
	InterestSessions dist.ZipfFit
}

// ClientFigures is the part of the Section 3 characterization only the
// figures and the paper comparison read: the transfer-interest profile.
type ClientFigures struct {
	// TransfersPerClient is the per-client transfer count, in ascending
	// client-id order.
	TransfersPerClient []int

	// InterestTransfers is the Zipf fit of transfer frequency versus
	// client rank (Figure 7 left; paper: α = 0.7194).
	InterestTransfers dist.ZipfFit
}

// AnalyzeClientLayer runs the Section 3 pipeline on a sessionized trace:
// ClientLayerFrom the set's Sessionizer.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func AnalyzeClientLayer(set *sessions.Set) (*ClientLayer, error) {
	tr := set.Trace()
	if tr == nil || set.Count() == 0 {
		return nil, fmt.Errorf("%w: empty session set", ErrBadInput)
	}
	return ClientLayerFrom(set.Sessionizer(), tr.Horizon)
}

// ClientLayerFrom runs the Section 3 pipeline on a Sessionizer fed a
// whole trace of horizon seconds. It reads the Sessionizer and changes
// nothing in it.
func ClientLayerFrom(z *sessions.Sessionizer, horizon int64) (*ClientLayer, error) {
	if z.Sessions() == 0 {
		return nil, fmt.Errorf("%w: empty session set", ErrBadInput)
	}

	// c(t): a client is active while one of its sessions is ongoing.
	ev, err := newEvents(z.Sessions(), horizon)
	if err != nil {
		return nil, err
	}
	for s := range z.Spans() {
		ev.add(s.Start, s.End)
	}
	conc, err := ev.report()
	if err != nil {
		return nil, err
	}

	out := &ClientLayer{
		Concurrency:   conc,
		Interarrivals: ToDisplay(ClientInterarrivals(z)),
	}
	stats.SortInPlace(out.Interarrivals)

	// Interest profile: per-client session counts, in ascending
	// client-id order. Every client has at least one session.
	out.SessionsPerClient = z.SessionsPerClient()
	if out.InterestSessions, err = dist.FitZipfCounts(out.SessionsPerClient); err != nil {
		return nil, fmt.Errorf("interest (sessions): %w", err)
	}
	return out, nil
}

// DescribeClientLayer computes the figure-only part of the Section 3
// characterization from the sessions z holds: the Figure 7 left panel,
// each client's transfers summed over its sessions.
func DescribeClientLayer(z *sessions.Sessionizer) (*ClientFigures, error) {
	if z.Sessions() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	out := &ClientFigures{TransfersPerClient: z.TransfersPerClient()}
	var err error
	if out.InterestTransfers, err = dist.FitZipfCounts(out.TransfersPerClient); err != nil {
		return nil, fmt.Errorf("interest (transfers): %w", err)
	}
	return out, nil
}

// ClientInterarrivals computes a(i) = t(i+1) - t(i) over the session
// arrivals z holds, skipping consecutive pairs that belong to the same
// client per the paper's definition ("where sessions i and i+1 belong
// to different clients").
func ClientInterarrivals(z *sessions.Sessionizer) []float64 {
	out := make([]float64, 0, z.Sessions())
	var prev sessions.Span
	first := true
	for s := range z.Spans() {
		if !first && s.Client != prev.Client {
			out = append(out, float64(s.Start-prev.Start))
		}
		prev, first = s, false
	}
	return out
}

// ToDisplay rewrites every element of xs in place into the paper's
// ⌊t+1⌋ display form (stats.LogDisplayValue), the form the timing
// samples are plotted, fitted and compared in, and returns xs.
func ToDisplay(xs []float64) []float64 {
	for i, x := range xs {
		xs[i] = stats.LogDisplayValue(x)
	}
	return xs
}

// Diversity is the Figure 2 characterization of the client population's
// topological and geographical spread.
type Diversity struct {
	// ASTransferShare is the descending share of transfers per AS
	// (Figure 2 left).
	ASTransferShare []float64
	// ASIPShare is the descending share of distinct client IPs per AS
	// (Figure 2 center).
	ASIPShare []float64
	// CountryShare maps country code to its share of transfers
	// (Figure 2 right).
	CountryShare map[string]float64
	// NumAS and NumIPs are the numbers of distinct ASes and client IPs
	// observed (Table 1).
	NumAS  int
	NumIPs int
	// ObjectShare is the descending share of transfers per live object —
	// the feed-preference split (Table 1 observes two feeds). Element 0
	// is the dominant feed's share; calibrate.Fit reads FeedPreference
	// off it.
	ObjectShare []float64
}

// AnalyzeDiversity computes the Figure 2 series from a trace: one
// counting walk over integer ids (trace.Census), then DiversityFrom.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func AnalyzeDiversity(tr *trace.Trace) (*Diversity, error) {
	if tr.NumTransfers() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	return DiversityFrom(tr.Census(), tr.NumTransfers(), tr.Names)
}

// DiversityFrom computes the Figure 2 series from a census of the
// given number of transfers, a share per count. names gives the
// country ids their strings; it is read only to key CountryShare.
func DiversityFrom(census *trace.Census, transfers int, names *trace.Names) (*Diversity, error) {
	if transfers == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	d := &Diversity{
		ASTransferShare: stats.RankFrequencies(census.ASTransfers),
		ASIPShare:       stats.RankFrequencies(census.ASIPs),
		CountryShare:    make(map[string]float64, len(census.CountryTransfers)),
		NumAS:           len(census.ASTransfers),
		NumIPs:          census.IPs,
		ObjectShare:     stats.RankFrequencies(census.ObjectTransfers),
	}
	total := float64(transfers)
	for id, n := range census.CountryTransfers {
		if n > 0 {
			d.CountryShare[names.CountryName(uint16(id))] = float64(n) / total
		}
	}
	return d, nil
}
