package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// servedTrace is the trace m's workload from seed leaves in its
// server's log, sanitized — the reference for what ObserveServed and
// Run observe: the materialized workload served (simulate.Run), its
// rows built into a trace, then sanitized. It returns the run's
// sanitize report and peak concurrency too.
func servedTrace(t *testing.T, m gismo.Model, server simulate.Config, seed int64) (*trace.Trace, trace.SanitizeReport, int) {
	t.Helper()
	w, err := gismo.GenerateSeeded(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(w, server, uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	clean, report := res.Trace.Sanitize()
	return clean, report, res.PeakConcurrency
}

// TestServeMatchesLog: the rows a served run hands its Transfer sink
// are the log's. Served from the sharded stream, with one transfer in
// fifty gaining a spanning twin, they build (trace.New, then Sanitize)
// the trace and sanitize report trace.FromEntries rebuilds from the
// same run's log entries (simulate.Run over the materialized workload)
// followed by Sanitize, at GOMAXPROCS 1, 2 and 8 (the generator's shard
// count follows it). The rows are compared as a multiset through their
// country names, and their clients, IPs and objects up to a one-to-one
// renaming: the log build numbers every column in first-seen log
// order, the server by the generator's indices.
func TestServeMatchesLog(t *testing.T) {
	m, err := gismo.Scaled(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	server := simulate.DefaultConfig()
	server.SpanningPerMillion = 20000
	const seed = 23
	w, err := gismo.GenerateSeeded(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(w, server, seed)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := trace.FromEntries(res.Entries, wmslog.TraceEpoch, m.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	want, wantReport := logged.Sanitize()
	if wantReport.DroppedSpanning != res.Injected || res.Injected < 10 {
		t.Fatalf("log: %s with %d injected; want every injected entry dropped, and at least 10", wantReport, res.Injected)
	}

	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ws, err := gismo.NewStreamSeeded(m, seed, gismo.DefaultShards())
			if err != nil {
				t.Fatal(err)
			}
			defer ws.Close()
			var rows []trace.Transfer
			var names *trace.Names
			run, err := simulate.RunStream(ws, ws.Population(), m.Horizon, server, seed, simulate.StreamSinks{
				Transfer: func(x trace.Transfer) error {
					rows = append(rows, x)
					return nil
				},
				Names: func(n *trace.Names) { names = n },
			})
			if err != nil {
				t.Fatal(err)
			}
			sessions, err := ws.Sessions()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := trace.New(m.Horizon, rows)
			if err != nil {
				t.Fatal(err)
			}
			raw.Names = names
			got, report := raw.Sanitize()
			if report != wantReport {
				t.Errorf("sanitize report %s, want the log's %s", report, wantReport)
			}
			if run.PeakConcurrency != res.PeakConcurrency || sessions != w.SessionCount {
				t.Errorf("peak %d over %d sessions, want %d over %d", run.PeakConcurrency, sessions, res.PeakConcurrency, w.SessionCount)
			}
			sameRows(t, got, want)
		})
	}
}

// namedRow is a transfer with its country as a name and its client, IP
// and object ids set aside for sameRows' renaming check.
type namedRow struct {
	t       trace.Transfer // Client, IP, Country and Object zeroed
	country string
	client  int32
	ip      uint32
	object  uint16
}

func namedRows(tr *trace.Trace) []namedRow {
	rows := make([]namedRow, len(tr.Transfers))
	for i, t := range tr.Transfers {
		rows[i] = namedRow{country: tr.Names.CountryName(t.Country), client: t.Client, ip: t.IP, object: t.Object}
		t.Client, t.IP, t.Country, t.Object = 0, 0, 0, 0
		rows[i].t = t
	}
	slices.SortFunc(rows, func(a, b namedRow) int {
		return cmp.Or(
			cmp.Compare(a.t.Start, b.t.Start),
			cmp.Compare(a.t.Duration, b.t.Duration),
			cmp.Compare(a.t.Bytes, b.t.Bytes),
			cmp.Compare(a.t.Bandwidth, b.t.Bandwidth),
			cmp.Compare(a.t.ServerCPU, b.t.ServerCPU),
			cmp.Compare(a.t.AS, b.t.AS),
			cmp.Compare(a.country, b.country),
		)
	})
	return rows
}

// sameRows checks that got and want hold the same rows once names
// replace the country ids, and that got's clients, IPs and objects map
// one to one onto want's.
func sameRows(t *testing.T, got, want *trace.Trace) {
	t.Helper()
	g, w := namedRows(got), namedRows(want)
	if len(g) != len(w) {
		t.Fatalf("%d rows, want %d", len(g), len(w))
	}
	clients, ips, objects := renaming[int32]{}, renaming[uint32]{}, renaming[uint16]{}
	for i := range g {
		a, b := g[i], w[i]
		if a.t != b.t || a.country != b.country {
			t.Fatalf("row %d:\n got %+v\nwant %+v", i, a, b)
		}
		if !clients.add(a.client, b.client) || !ips.add(a.ip, b.ip) || !objects.add(a.object, b.object) {
			t.Fatalf("row %d: client %d / IP %d / object %d is renamed inconsistently (want %d / %d / %d)",
				i, a.client, a.ip, a.object, b.client, b.ip, b.object)
		}
	}
}

// renaming is a one-to-one map being built pair by pair.
type renaming[K comparable] struct{ to, from map[K]K }

// add records a → b and reports whether that keeps the map one to one.
func (r *renaming[K]) add(a, b K) bool {
	if r.to == nil {
		r.to, r.from = map[K]K{}, map[K]K{}
	}
	if x, ok := r.to[a]; ok {
		return x == b
	}
	if _, ok := r.from[b]; ok {
		return false
	}
	r.to[a], r.from[b] = b, a
	return true
}
