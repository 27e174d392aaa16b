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

// TestServeMatchesLog: Serve's trace is the log's. With one transfer in
// fifty gaining a spanning twin, its trace and sanitize report equal
// those trace.FromEntries rebuilds from the same run's log entries
// (simulate.Run over the materialized workload) followed by Sanitize,
// at GOMAXPROCS 1, 2 and 8 (the generator's shard count follows it).
// The rows are compared as a multiset through their IP and country
// names, and their clients and objects up to a one-to-one renaming:
// the log build numbers every column in first-seen log order, Serve by
// the generator's indices.
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
			s, err := Serve(m, server, seed)
			if err != nil {
				t.Fatal(err)
			}
			if s.Sanitize != wantReport {
				t.Errorf("sanitize report %s, want the log's %s", s.Sanitize, wantReport)
			}
			if s.Peak != res.PeakConcurrency || s.Sessions != w.SessionCount {
				t.Errorf("peak %d over %d sessions, want %d over %d", s.Peak, s.Sessions, res.PeakConcurrency, w.SessionCount)
			}
			if s.Trace.Horizon != want.Horizon {
				t.Errorf("horizon %d, want %d", s.Trace.Horizon, want.Horizon)
			}
			sameRows(t, s.Trace, want)
		})
	}
}

// namedRow is a transfer with its IP and country as names and its
// client and object ids set aside for sameRows' renaming check.
type namedRow struct {
	t           trace.Transfer // Client, IP, Country and Object zeroed
	ip, country string
	client      int32
	object      uint16
}

func namedRows(tr *trace.Trace) []namedRow {
	rows := make([]namedRow, len(tr.Transfers))
	for i, t := range tr.Transfers {
		rows[i] = namedRow{ip: tr.IPName(t.IP), country: tr.Names.CountryName(t.Country), client: t.Client, object: t.Object}
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
			cmp.Compare(a.ip, b.ip),
			cmp.Compare(a.country, b.country),
		)
	})
	return rows
}

// sameRows checks that got and want hold the same rows once names
// replace the IP and country ids, and that got's clients and objects
// map one to one onto want's.
func sameRows(t *testing.T, got, want *trace.Trace) {
	t.Helper()
	g, w := namedRows(got), namedRows(want)
	if len(g) != len(w) {
		t.Fatalf("%d rows, want %d", len(g), len(w))
	}
	clients, objects := renaming[int32]{}, renaming[uint16]{}
	for i := range g {
		a, b := g[i], w[i]
		if a.t != b.t || a.ip != b.ip || a.country != b.country {
			t.Fatalf("row %d:\n got %+v\nwant %+v", i, a, b)
		}
		if !clients.add(a.client, b.client) || !objects.add(a.object, b.object) {
			t.Fatalf("row %d: client %d / object %d is renamed inconsistently (want %d / %d)", i, a.client, a.object, b.client, b.object)
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
