package analyze

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sessions"
	"repro/internal/trace"
)

// ClientShape is one client's workload footprint at the granularity the
// replay validation compares: how many transfers it issued and how many
// sessions they sessionize into.
type ClientShape struct {
	Transfers int
	Sessions  int
}

// MatchReport is the outcome of comparing an offered workload against
// the workload a server actually logged — the end of the
// generate → replay → re-analyze loop. Client identities are densified
// independently on each side (the served trace numbers clients by
// first-seen player ID), so the comparison is identity-agnostic: totals
// plus the multiset of per-client shapes.
type MatchReport struct {
	OfferedTransfers int
	ServedTransfers  int
	OfferedSessions  int
	ServedSessions   int
	OfferedClients   int
	ServedClients    int

	// ShapeMismatches counts per-client (transfers, sessions) shapes
	// present in one trace's multiset but not the other (symmetric
	// difference, in client units).
	ShapeMismatches int

	Timeout int64
}

// Match reports whether the served workload is session- and
// transfer-exact against the offered one.
func (m *MatchReport) Match() bool {
	return m.OfferedTransfers == m.ServedTransfers &&
		m.OfferedSessions == m.ServedSessions &&
		m.OfferedClients == m.ServedClients &&
		m.ShapeMismatches == 0
}

// String renders the comparison.
func (m *MatchReport) String() string {
	var b strings.Builder
	status := "MATCH"
	if !m.Match() {
		status = "MISMATCH"
	}
	fmt.Fprintf(&b, "%s at timeout %d s\n", status, m.Timeout)
	fmt.Fprintf(&b, "transfers: offered %d, served %d\n", m.OfferedTransfers, m.ServedTransfers)
	fmt.Fprintf(&b, "sessions:  offered %d, served %d\n", m.OfferedSessions, m.ServedSessions)
	fmt.Fprintf(&b, "clients:   offered %d, served %d\n", m.OfferedClients, m.ServedClients)
	if m.ShapeMismatches > 0 {
		fmt.Fprintf(&b, "per-client shape mismatches: %d", m.ShapeMismatches)
	} else {
		b.WriteString("per-client shapes identical")
	}
	return b.String()
}

// CompareTraces sessionizes both traces at the given timeout and
// compares them: totals and the multiset of per-client shapes. It is
// the validation step that closes the loop — the workload parsed back
// out of the server's log must be the workload that was offered.
func CompareTraces(offered, served *trace.Trace, timeout int64) (*MatchReport, error) {
	offSet, err := sessions.Sessionize(offered, timeout)
	if err != nil {
		return nil, err
	}
	srvSet, err := sessions.Sessionize(served, timeout)
	if err != nil {
		return nil, err
	}
	offShapes := clientShapes(offered, offSet)
	srvShapes := clientShapes(served, srvSet)

	report := &MatchReport{
		OfferedTransfers: offered.NumTransfers(),
		ServedTransfers:  served.NumTransfers(),
		OfferedSessions:  offSet.Count(),
		ServedSessions:   srvSet.Count(),
		OfferedClients:   len(offShapes),
		ServedClients:    len(srvShapes),
		Timeout:          timeout,
	}

	diff := make(map[ClientShape]int)
	for _, s := range offShapes {
		diff[s]++
	}
	for _, s := range srvShapes {
		diff[s]--
	}
	for _, d := range diff { //lsm:nondet -- integer sum of absolute differences
		if d > 0 {
			report.ShapeMismatches += d
		} else {
			report.ShapeMismatches -= d
		}
	}
	return report, nil
}

// clientShapes folds a sessionized trace into one shape per client,
// sorted for determinism.
func clientShapes(tr *trace.Trace, set *sessions.Set) []ClientShape {
	byClient := tr.ByClient()
	out := make([]ClientShape, byClient.Len())
	for i := range set.Sessions {
		s := &set.Sessions[i]
		sh := &out[byClient.Slot(s.Transfers[0])]
		sh.Sessions++
		sh.Transfers += s.Count()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Transfers != out[j].Transfers {
			return out[i].Transfers < out[j].Transfers
		}
		return out[i].Sessions < out[j].Sessions
	})
	return out
}
