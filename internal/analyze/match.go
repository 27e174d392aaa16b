package analyze

import (
	"fmt"
	"strings"

	"repro/internal/sessions"
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

// CompareSessions compares two workloads sessionized at one timeout —
// the offered one and the one a server logged: totals (the transfers
// each Sessionizer was fed, its sessions and its clients) and the
// multiset of per-client (transfers, sessions) shapes. It is the
// validation step that closes the loop: the workload parsed back out
// of the server's log must be the workload that was offered.
func CompareSessions(offered, served *sessions.Sessionizer) *MatchReport {
	report := &MatchReport{
		OfferedSessions: offered.Sessions(),
		ServedSessions:  served.Sessions(),
		OfferedClients:  offered.Clients(),
		ServedClients:   served.Clients(),
		Timeout:         offered.Timeout(),
	}
	diff := make(map[ClientShape]int)
	report.OfferedTransfers = tallyShapes(diff, offered, 1)
	report.ServedTransfers = tallyShapes(diff, served, -1)
	for _, d := range diff { //lsm:nondet -- integer sum of absolute differences
		report.ShapeMismatches += max(d, -d)
	}
	return report
}

// tallyShapes adds weight to diff's count of each of z's per-client
// shapes and returns the transfers z was fed.
func tallyShapes(diff map[ClientShape]int, z *sessions.Sessionizer, weight int) (transfers int) {
	perClient := z.SessionsPerClient()
	for i, n := range z.TransfersPerClient() {
		diff[ClientShape{Transfers: n, Sessions: perClient[i]}] += weight
		transfers += n
	}
	return transfers
}
