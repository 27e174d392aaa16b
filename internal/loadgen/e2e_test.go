package loadgen

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/gismo"
	"repro/internal/liveserver"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// runClosedLoop replays events against a real TCP server, takes the
// entries the server logged onto the trace clock, and compares the
// served workload against the offered one. This is the loop the package exists to
// close: generate → replay over sockets → parse the log → re-analyze.
func runClosedLoop(t *testing.T, events []workload.Event, horizon int64, cfg Config, maxConns int, timeout int64) (*analyze.MatchReport, *Result) {
	t.Helper()
	var mu sync.Mutex
	var entries []*wmslog.Entry
	srv := testServer(t, maxConns, func(r liveserver.TransferRecord) {
		e := liveserver.RecordEntry(r)
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	})

	res, err := Replay(srv.Addr(), workload.NewSliceStream(events), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("replay failures break exactness: %s", res)
	}
	if res.Completed != len(events) {
		t.Fatalf("completed %d of %d", res.Completed, len(events))
	}

	mu.Lock()
	logged := append([]*wmslog.Entry(nil), entries...)
	mu.Unlock()
	served, err := newServed(res.Begin, res.Origin, res.Compression, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range logged {
		served.add(e)
		d := *e
		Decompress(&d, res.Begin, res.Origin, res.Compression)
		if err := d.Validate(); err != nil {
			t.Fatalf("decompressed entry invalid: %v (%+v)", err, d)
		}
	}
	report, err := Check(events, served, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return report, res
}

// TestClosedLoopSyntheticExactMatch uses a hand-built workload whose
// session structure sits far from the timeout boundary on both sides,
// so the match must be exact despite the log's 1-second wall
// resolution: 24 clients, each with two sessions of three transfers.
func TestClosedLoopSyntheticExactMatch(t *testing.T) {
	const (
		clients     = 24
		intraGap    = 400   // trace seconds between session transfers
		interGap    = 20000 // silent gap between a client's two sessions
		duration    = 100
		compression = 4000
		timeout     = 10000 // margin ±2*compression on both sides
	)
	var events []workload.Event
	session := 0
	for c := 0; c < clients; c++ {
		for s := 0; s < 2; s++ {
			start := int64(100*c) + int64(s)*int64(interGap+2*intraGap+duration)
			for k := 0; k < 3; k++ {
				events = append(events, workload.Event{
					Session:  session,
					Seq:      k,
					Client:   c,
					Object:   (c + k) % 2,
					Start:    start + int64(k*intraGap),
					Duration: duration,
				})
			}
			session++
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Less(events[j]) })
	horizon := int64(2 * (interGap + 10*intraGap + duration))

	cfg := DefaultConfig()
	cfg.Compression = compression
	cfg.MaxConns = 64
	cfg.MinWatch = 25 * time.Millisecond
	report, res := runClosedLoop(t, events, horizon, cfg, 128, timeout)

	if !report.Match() {
		t.Fatalf("served workload does not match offered:\n%s", report)
	}
	if report.OfferedSessions != clients*2 {
		t.Fatalf("offered sessions = %d, want %d", report.OfferedSessions, clients*2)
	}
	if report.OfferedTransfers != clients*2*3 {
		t.Fatalf("offered transfers = %d", report.OfferedTransfers)
	}
	t.Logf("synthetic closed loop:\n%s\n%s", report, res)
}

// TestClosedLoopGismoFlashCrowd drives the full pipeline over a model
// whose in-show events draw a crowd: sharded generator → TCP replay →
// log decompression → re-analysis, with the session timeout chosen in
// the largest silent-gap void so the log's wall-clock quantization
// cannot flip a session boundary. The crowd is the model's own
// (gismo.EventConfig), not a transform of the generated stream.
func TestClosedLoopGismoFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("socket e2e in -short mode")
	}
	m, err := gismo.Scaled(3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Horizon = 1800 // half a trace hour is plenty for the loop
	m.RampUpDays = 0 // the premiere ramp would empty a 30-minute trace
	m.BaseArrivalRate = 0.25
	m.Events = gismo.EventConfig{PerDay: 96, MeanDuration: 300, Amplitude: 3}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	ws, err := gismo.NewStream(m, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	events := workload.Drain(ws, 0)
	if len(events) < 100 {
		t.Fatalf("workload too thin for a meaningful loop: %d events", len(events))
	}
	windows := make([]int, m.Horizon/300)
	for _, ev := range events {
		if ev.Seq == 0 {
			windows[ev.Start/300]++
		}
	}
	if lo, hi := slices.Min(windows), slices.Max(windows); hi < 2*lo {
		t.Fatalf("sessions per 5-minute window %v: the events drew no crowd", windows)
	}

	const compression = 300
	timeout, ok := SafeTimeout(events, m.Horizon, 3*compression)
	if !ok {
		t.Fatal("no quantization-safe session timeout exists for this seed; adjust the workload")
	}

	cfg := DefaultConfig()
	cfg.Compression = compression
	cfg.MaxConns = 128
	cfg.MinWatch = 25 * time.Millisecond
	report, res := runClosedLoop(t, events, m.Horizon, cfg, 256, timeout)
	if !report.Match() {
		t.Fatalf("served workload does not match offered:\n%s", report)
	}
	if res.PeakConns < 2 {
		t.Errorf("suspiciously serial replay: peak conns %d", res.PeakConns)
	}
	t.Logf("gismo+events closed loop (%d events, sessions per 5 minutes %v, timeout %d):\n%s\n%s", len(events), windows, timeout, report, res)
}
