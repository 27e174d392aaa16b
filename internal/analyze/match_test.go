package analyze

import (
	"testing"

	"repro/internal/sessions"
	"repro/internal/trace"
)

func matchTrace(t *testing.T, rows ...[3]int64) *trace.Trace {
	t.Helper()
	transfers := make([]trace.Transfer, 0, len(rows))
	for _, r := range rows {
		transfers = append(transfers, trace.Transfer{
			Client:   int32(r[0]),
			AS:       1,
			Start:    r[1],
			Duration: r[2],
			Bytes:    1,
		})
	}
	tr, err := trace.New(86400, transfers)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// compareTraces walks each trace into a Sessionizer at timeout and
// compares the two.
func compareTraces(offered, served *trace.Trace, timeout int64) (*MatchReport, error) {
	var z [2]*sessions.Sessionizer
	for k, tr := range []*trace.Trace{offered, served} {
		var err error
		if z[k], err = sessions.NewSessionizer(timeout, 0); err != nil {
			return nil, err
		}
		for i := range tr.Transfers {
			z[k].Add(&tr.Transfers[i])
		}
	}
	return CompareSessions(z[0], z[1]), nil
}

func TestCompareTracesIdentical(t *testing.T) {
	rows := [][3]int64{
		{0, 100, 50}, {0, 200, 50}, // client 0, one session
		{0, 10000, 50}, // client 0, second session at timeout 1500
		{1, 300, 100},  // client 1, one session
	}
	a := matchTrace(t, rows...)
	b := matchTrace(t, rows...)
	rep, err := compareTraces(a, b, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match() {
		t.Fatalf("identical traces mismatch:\n%s", rep)
	}
	if rep.OfferedTransfers != 4 || rep.OfferedSessions != 3 || rep.OfferedClients != 2 || rep.Timeout != 1500 {
		t.Fatalf("sessionization off: %+v", rep)
	}
}

// TestCompareTracesIdentityAgnostic: renumbering clients (as the served
// trace does via first-seen player order) must not break the match.
func TestCompareTracesIdentityAgnostic(t *testing.T) {
	a := matchTrace(t, [3]int64{0, 100, 50}, [3]int64{0, 200, 50}, [3]int64{1, 300, 100})
	b := matchTrace(t, [3]int64{7, 100, 50}, [3]int64{7, 200, 50}, [3]int64{2, 300, 100})
	rep, err := compareTraces(a, b, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match() {
		t.Fatalf("client renumbering broke the match:\n%s", rep)
	}
}

func TestCompareTracesDetectsLostTransfer(t *testing.T) {
	a := matchTrace(t, [3]int64{0, 100, 50}, [3]int64{0, 200, 50}, [3]int64{1, 300, 100})
	b := matchTrace(t, [3]int64{0, 100, 50}, [3]int64{1, 300, 100})
	rep, err := compareTraces(a, b, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match() {
		t.Fatal("lost transfer not detected")
	}
	// Client 0's shape went from (2, 1) to (1, 1): one on each side.
	if rep.ShapeMismatches != 2 || rep.OfferedTransfers != 3 || rep.ServedTransfers != 2 {
		t.Errorf("lost transfer counted as %+v", rep)
	}
}

// TestCompareTracesDetectsSessionDrift: same transfers, but one shifted
// across the timeout boundary — transfer counts agree, session counts
// must not.
func TestCompareTracesDetectsSessionDrift(t *testing.T) {
	a := matchTrace(t, [3]int64{0, 100, 50}, [3]int64{0, 1000, 50})  // gap 850 < 1500: one session
	b := matchTrace(t, [3]int64{0, 100, 50}, [3]int64{0, 10000, 50}) // gap: two sessions
	rep, err := compareTraces(a, b, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match() {
		t.Fatal("session drift not detected")
	}
	if rep.OfferedSessions == rep.ServedSessions {
		t.Error("session totals should differ")
	}
}

func TestCompareTracesBadTimeout(t *testing.T) {
	a := matchTrace(t, [3]int64{0, 100, 50})
	if _, err := compareTraces(a, a, 0); err == nil {
		t.Fatal("zero timeout accepted")
	}
}
