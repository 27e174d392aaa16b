package analyze

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/sessions"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ClientLayer is the Section 3 characterization: the client population's
// concurrency profile, interarrival process, and interest profile.
type ClientLayer struct {
	// Concurrency is c(t), the number of clients with an ongoing session
	// (Figures 3, 4 and 8).
	Concurrency *ConcurrencyReport

	// Interarrivals are the gaps a(i) = t(i+1) - t(i) between session
	// arrivals of different clients, in seconds (Figure 5). Zero gaps are
	// kept; display code applies the ⌊t+1⌋ convention.
	Interarrivals []float64

	// TransfersPerClient and SessionsPerClient are the per-client access
	// counts behind the interest profile.
	TransfersPerClient []int
	SessionsPerClient  []int

	// InterestTransfers is the Zipf fit of transfer frequency versus
	// client rank (Figure 7 left; paper: α = 0.7194).
	InterestTransfers dist.ZipfFit
	// InterestSessions is the Zipf fit of session frequency versus client
	// rank (Figure 7 right; paper: α = 0.4704).
	InterestSessions dist.ZipfFit
}

// AnalyzeClientLayer runs the Section 3 pipeline on a sessionized trace.
func AnalyzeClientLayer(set *sessions.Set) (*ClientLayer, error) {
	tr := set.Trace()
	if tr == nil || set.Count() == 0 {
		return nil, fmt.Errorf("%w: empty session set", ErrBadInput)
	}

	// c(t): a client is active while one of its sessions is ongoing.
	ev, err := newEvents(set.Count(), tr.Horizon)
	if err != nil {
		return nil, err
	}
	for i := range set.Sessions {
		ev.add(set.Sessions[i].Start, set.Sessions[i].End)
	}
	conc, err := ev.report()
	if err != nil {
		return nil, err
	}

	out := &ClientLayer{
		Concurrency:   conc,
		Interarrivals: ClientInterarrivals(set),
	}

	// Interest profile: per-client counts of transfers and sessions, in
	// ascending client-id order. Every client has at least one session.
	byClient := tr.ByClient()
	out.TransfersPerClient = make([]int, byClient.Len())
	out.SessionsPerClient = make([]int, byClient.Len())
	for k := range out.TransfersPerClient {
		out.TransfersPerClient[k] = len(byClient.Transfers(k))
	}
	for i := range set.Sessions {
		out.SessionsPerClient[byClient.Slot(set.Sessions[i].Transfers[0])]++
	}

	if out.InterestTransfers, err = dist.FitZipfCounts(out.TransfersPerClient); err != nil {
		return nil, fmt.Errorf("interest (transfers): %w", err)
	}
	if out.InterestSessions, err = dist.FitZipfCounts(out.SessionsPerClient); err != nil {
		return nil, fmt.Errorf("interest (sessions): %w", err)
	}
	return out, nil
}

// ClientInterarrivals computes a(i) = t(i+1) - t(i) over session arrivals,
// skipping consecutive pairs that belong to the same client per the
// paper's definition ("where sessions i and i+1 belong to different
// clients").
func ClientInterarrivals(set *sessions.Set) []float64 {
	ss := set.Sessions // already in arrival (Start, Client) order
	out := make([]float64, 0, len(ss))
	for i := 1; i < len(ss); i++ {
		if ss[i].Client == ss[i-1].Client {
			continue
		}
		out = append(out, float64(ss[i].Start-ss[i-1].Start))
	}
	return out
}

// InterarrivalDisplay returns the interarrivals shifted by the paper's
// ⌊t+1⌋ display convention, for log-scale plotting and fitting.
func InterarrivalDisplay(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = stats.LogDisplayValue(x)
	}
	return out
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
// counting walk over integer ids (trace.Census), then a share per
// count. Names are read only to key CountryShare.
func AnalyzeDiversity(tr *trace.Trace) (*Diversity, error) {
	if tr.NumTransfers() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	census := tr.Census()
	d := &Diversity{
		ASTransferShare: stats.RankFrequencies(census.ASTransfers),
		ASIPShare:       stats.RankFrequencies(census.ASIPs),
		CountryShare:    make(map[string]float64, len(census.CountryTransfers)),
		NumAS:           len(census.ASTransfers),
		NumIPs:          census.IPs,
		ObjectShare:     stats.RankFrequencies(census.ObjectTransfers),
	}
	total := float64(tr.NumTransfers())
	for id, n := range census.CountryTransfers {
		if n > 0 {
			d.CountryShare[tr.CountryName(uint16(id))] = float64(n) / total
		}
	}
	return d, nil
}
