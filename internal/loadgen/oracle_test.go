package loadgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// The replay check as it ran before it moved onto the Sessionizer, kept
// as the reference: the offered events materialized as a trace, both
// traces sessionized through a per-client grouping of their rows, and
// the safe timeout found by walking that grouping. It shares nothing
// with Check and SafeTimeout but the trace rows and the report type.

// oracleOfferedTrace is the offered events as a trace, wire-level
// fields stubbed.
func oracleOfferedTrace(events []workload.Event, horizon int64) (*trace.Trace, error) {
	transfers := make([]trace.Transfer, 0, len(events))
	for _, e := range events {
		if e.Client != int(int32(e.Client)) || e.Object != int(uint16(e.Object)) {
			return nil, fmt.Errorf("%w: client %d or object %d beyond what a transfer can number", trace.ErrBadTrace, e.Client, e.Object)
		}
		transfers = append(transfers, trace.Transfer{
			Client:   int32(e.Client),
			AS:       1,
			Object:   uint16(e.Object),
			Start:    e.Start,
			Duration: e.Duration,
			Bytes:    1,
		})
	}
	tr, err := trace.New(horizon, transfers)
	if err != nil {
		return nil, err
	}
	tr.Names = &trace.Names{Countries: []string{"BR"}}
	return tr, nil
}

// oracleByClient groups tr's row indices by client, each group in the
// trace order.
func oracleByClient(tr *trace.Trace) map[int32][]int {
	out := make(map[int32][]int)
	for i, t := range tr.Transfers {
		out[t.Client] = append(out[t.Client], i)
	}
	return out
}

// oracleSafeTimeout is SafeTimeout over a trace: each client's rows in
// the trace order, a gap wherever a start passes the client's coverage.
func oracleSafeTimeout(tr *trace.Trace, slack int64) (int64, bool) {
	gaps := []int64{0}
	for _, rows := range oracleByClient(tr) { //lsm:nondet -- the gaps are sorted below
		coverage := int64(-1)
		for _, i := range rows {
			tx := &tr.Transfers[i]
			if coverage >= 0 && tx.Start > coverage {
				gaps = append(gaps, tx.Start-coverage)
			}
			if end := tx.End(); end > coverage {
				coverage = end
			}
		}
	}
	gaps = append(gaps, 4*tr.Horizon)
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	var best, bestWidth int64
	for i := 1; i < len(gaps); i++ {
		if w := gaps[i] - gaps[i-1]; w > bestWidth {
			bestWidth = w
			best = gaps[i-1] + w/2
		}
	}
	if bestWidth/2 < slack || best < 1 {
		return 0, false
	}
	return best, true
}

// oracleShapes sessionizes tr at timeout client by client and returns
// each client's (transfers, sessions) shape and the session total.
func oracleShapes(tr *trace.Trace, timeout int64) (shapes []analyze.ClientShape, sessions int) {
	for _, rows := range oracleByClient(tr) { //lsm:nondet -- the shapes are compared as a multiset
		sh := analyze.ClientShape{Transfers: len(rows)}
		var end int64
		for k, i := range rows {
			t := &tr.Transfers[i]
			if k == 0 || t.Start-end > timeout {
				sh.Sessions++
				end = t.End()
			}
			end = max(end, t.End())
		}
		shapes = append(shapes, sh)
		sessions += sh.Sessions
	}
	return shapes, sessions
}

// oracleCompareTraces is CompareTraces: totals and the symmetric
// difference of the per-client shape multisets.
func oracleCompareTraces(offered, served *trace.Trace, timeout int64) (*analyze.MatchReport, error) {
	if timeout <= 0 {
		return nil, fmt.Errorf("bad timeout %d", timeout)
	}
	offShapes, offSessions := oracleShapes(offered, timeout)
	srvShapes, srvSessions := oracleShapes(served, timeout)
	report := &analyze.MatchReport{
		OfferedTransfers: offered.NumTransfers(),
		ServedTransfers:  served.NumTransfers(),
		OfferedSessions:  offSessions,
		ServedSessions:   srvSessions,
		OfferedClients:   len(offShapes),
		ServedClients:    len(srvShapes),
		Timeout:          timeout,
	}
	diff := make(map[analyze.ClientShape]int)
	for _, s := range offShapes {
		diff[s]++
	}
	for _, s := range srvShapes {
		diff[s]--
	}
	for _, d := range diff { //lsm:nondet -- integer sum of absolute differences
		report.ShapeMismatches += max(d, -d)
	}
	return report, nil
}

// referenceReconcile is the reconciling rule over a whole entry list,
// as a sort: tagged entries of lost events go, and of the serves of one
// event the one that ended first, then the one whose rendered line has
// the smaller FNV-1a hash, stays.
func referenceReconcile(logged []*wmslog.Entry, failed []workload.Event) (kept []*wmslog.Entry, droppedLost, droppedDup int) {
	type serve struct {
		session int64
		seq     int
		end     int64
		hash    uint64
		e       *wmslog.Entry
	}
	var tagged []serve
	for _, e := range logged {
		s, q, ok := e.SessionSeq()
		switch {
		case !ok:
			kept = append(kept, e)
		case slices.ContainsFunc(failed, func(f workload.Event) bool { return int64(f.Session) == s && f.Seq == q }):
			droppedLost++
		default:
			h := fnv.New64a()
			h.Write(wmslog.AppendEntry(nil, e))
			tagged = append(tagged, serve{s, q, e.Timestamp.Unix(), h.Sum64(), e})
		}
	}
	sort.Slice(tagged, func(i, j int) bool {
		a, b := tagged[i], tagged[j]
		if a.session != b.session || a.seq != b.seq {
			return a.session < b.session || a.session == b.session && a.seq < b.seq
		}
		return a.end < b.end || a.end == b.end && a.hash < b.hash
	})
	for i, sv := range tagged {
		if i > 0 && sv.session == tagged[i-1].session && sv.seq == tagged[i-1].seq {
			droppedDup++
			continue
		}
		kept = append(kept, sv.e)
	}
	return kept, droppedLost, droppedDup
}

// fuzzClients are the client ids the fuzz input picks from: dense ones,
// a negative one and two past a Sessionizer's direct table.
var fuzzClients = []int{0, 1, 2, 3, 5, 8, -3, 1<<22 + 1, 1 << 30}

// fuzzBegin is the wall instant of trace second 0 in the fuzzed replays.
var fuzzBegin = time.Date(2002, 3, 1, 12, 0, 0, 0, time.UTC)

// servedEntry is the entry a server logs for event e of a replay at
// compression c that began at fuzzBegin: its player, its tag, and the
// wall clock's whole seconds — the end truncated, the duration rounded.
func servedEntry(e workload.Event, player int, c float64) *wmslog.Entry {
	wall := func(s int64) time.Duration { return time.Duration(float64(s) / c * float64(time.Second)) }
	return &wmslog.Entry{
		Timestamp: fuzzBegin.Add(wall(e.End())).Truncate(time.Second),
		ClientIP:  "10.0.0.1",
		PlayerID:  fmt.Sprintf("p%d", player),
		URIStem:   "/live/feed1",
		Duration:  int64(math.Round(float64(e.Duration) / c)),
		Referer:   wmslog.SessionRef(int64(e.Session), e.Seq),
		Status:    200,
	}
}

// writeServedLog writes entries to path as a text (format 0) or binary
// (1) log, gzipped for formats 2 and 3, and returns the file's path.
func writeServedLog(t *testing.T, path string, entries []*wmslog.Entry, format byte) string {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var w wmslog.EntryWriter = wmslog.NewWriter(f)
	if format&1 == 1 {
		w = wmslog.NewBinaryWriter(f)
	}
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if format&2 == 2 {
		if path, err = wmslog.CompressFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// FuzzCheckMatchesTraceOracle decodes bytes into an offered event
// stream and the log a compressed-time replay of it leaves — renumbered
// players, whole wall seconds, and one of: nothing changed, a dropped
// transfer, a session split by moving a client's later transfers past
// the timeout, two clients merged, a start tied to its predecessor's, a
// duplicate serve ending in a later second or in the same one, a
// recorded-lost event that was logged all the same — split over two
// log files, each text or binary, plain or gzipped, with a duplicate
// serve on the other file from the first. It holds the served side as
// lsmload -check reads it (ReadServed over the two files, in both name
// orders, then Check) and the event-walk SafeTimeout to the
// trace-based reference over FromEntries of the same entries,
// reconciled by referenceReconcile and decompressed, report for report
// and timeout for timeout; the drop counts to the reference's, and the
// realization digest to the logged entries'. Nothing changed, a
// duplicate serve and a logged lost event match at compression 1,
// where the log's whole seconds are exact, and at any compression when
// the timeout is safe by more than the quantization.
func FuzzCheckMatchesTraceOracle(f *testing.F) {
	// Header: mutation, its position (and, bit by bit, the file each
	// logged entry goes to), timeout, slack, compression and the two
	// files' formats; then (client, start step, duration) triples.
	f.Add([]byte{0, 0, 40, 10, 0, 0, 5, 20, 1, 0, 30, 0, 200, 10, 1, 90, 5})
	f.Add([]byte{1, 2, 40, 10, 0, 0, 5, 20, 1, 0, 30, 0, 200, 10, 1, 90, 5, 2, 0, 0})
	f.Add([]byte{2, 1, 30, 3, 1, 0, 5, 20, 0, 10, 5, 0, 10, 5, 7, 0, 9, 0, 3, 1})
	f.Add([]byte{3, 1, 100, 1, 0, 0, 5, 20, 1, 0, 30, 2, 0, 4, 8, 250, 1})
	f.Add([]byte{4, 3, 60, 20, 2, 2, 0, 0, 2, 0, 0, 6, 90, 250, 2, 255, 0, 7, 1, 1})
	f.Add([]byte{0, 0, 40, 40, 3, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5, 0, 255, 7, 1, 200, 30})
	f.Add([]byte{5, 1, 40, 30, 1, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5, 0, 255, 7})
	f.Add([]byte{6, 2, 40, 30, 2, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5, 0, 255, 7})
	f.Add([]byte{0, 0, 40, 0, 0, 0, 5, 20, 1, 0, 30, 0, 46, 0, 1, 90, 5})
	f.Add([]byte{5, 1, 40, 2, 0, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5})
	f.Add([]byte{6, 2, 40, 1, 0, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5})
	// Two files in mixed formats (bits 2–5 of the compression byte,
	// node1's then node2's): a same-second duplicate from the address
	// that sorts last (gzipped binary, text), one from the address that
	// sorts first (binary, gzipped text), a later duplicate (text,
	// gzipped binary) and a logged lost event (gzipped text, binary).
	f.Add([]byte{7, 0x51, 40, 30, 0x0c, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5})
	f.Add([]byte{7, 0xa2, 40, 30, 0x24, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5, 0, 255, 7})
	f.Add([]byte{5, 0x33, 40, 30, 0x30, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5, 0, 255, 7})
	f.Add([]byte{6, 0x6c, 40, 30, 0x18, 0, 5, 20, 1, 0, 30, 0, 250, 10, 1, 90, 5, 0, 255, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		mutation, at := data[0]%8, int(data[1])
		timeout, slack := 1+int64(data[2]), 1+int64(data[3]%64)
		c := float64(1 + data[4]%4)
		formats := [2]byte{data[4] >> 2 & 3, data[4] >> 4 & 3}
		data = data[5:]
		const horizon = 1 << 20
		var events []workload.Event
		var start int64
		for ; len(data) >= 3; data = data[3:] {
			start += int64(data[1])
			events = append(events, workload.Event{
				Session: len(events), Client: fuzzClients[int(data[0])%len(fuzzClients)],
				Object: int(data[0] & 1), Start: start, Duration: int64(data[2]),
			})
		}
		if len(events) > 0 && mutation == 4 { // a start tied to its predecessor's
			k := at % len(events)
			if k > 0 {
				events[k].Start = events[k-1].Start
			}
		}

		served := slices.Clone(events)
		players := make([]int, len(served)) // the server numbers clients its own way
		for i, e := range served {
			players[i] = 7*e.Client + 11
		}
		var failed []workload.Event
		if len(served) > 0 {
			k := at % len(served)
			switch mutation {
			case 1: // a dropped transfer
				served = slices.Delete(served, k, k+1)
				players = slices.Delete(players, k, k+1)
			case 2: // a split session: the client's later transfers move past T_o
				for i := k; i < len(served); i++ {
					if served[i].Client == served[k].Client {
						served[i].Start += served[k].Duration + timeout + 1
					}
				}
			case 3: // two clients merged
				for i := range served {
					if served[i].Client == served[k].Client {
						players[i] = players[0]
					}
				}
			case 6: // recorded lost, but logged before the transfer failed
				failed = append(failed, events[k])
			}
		}
		var logged []*wmslog.Entry
		var files [2][]*wmslog.Entry
		for i, e := range served {
			logged = append(logged, servedEntry(e, players[i], c))
			file := at >> (i % 8) & 1
			files[file] = append(files[file], logged[i])
		}
		if len(served) > 0 && (mutation == 5 || mutation == 7) { // a retry logged the event again
			k := at % len(logged)
			dup := *logged[k]
			if mutation == 5 { // in a later second
				dup.Timestamp = dup.Timestamp.Add(time.Duration(1+at%5) * time.Second)
			} else { // in the same second, from a client address that sorts first or last
				dup.ClientIP = []string{"10.0.0.0", "10.0.0.2"}[at>>4&1]
			}
			logged = append(logged, &dup)
			file := 1 - at>>(k%8)&1
			files[file] = append(files[file], &dup)
		}
		kept, droppedLost, droppedDup := referenceReconcile(logged, failed)
		if len(events) > 0 && ((mutation == 5 || mutation == 7) != (droppedDup == 1) || (mutation == 6) != (droppedLost == 1)) || droppedDup+droppedLost > 1 {
			t.Fatalf("mutation %d: the reference dropped %d lost and %d duplicate entries", mutation, droppedLost, droppedDup)
		}
		var digest wmslog.Realization
		for _, e := range logged {
			digest.Add(e)
		}
		offered := slices.DeleteFunc(slices.Clone(events), func(e workload.Event) bool {
			return slices.ContainsFunc(failed, func(f workload.Event) bool { return f.Session == e.Session && f.Seq == e.Seq })
		})
		var decompressed []*wmslog.Entry
		for _, e := range kept {
			d := *e
			Decompress(&d, fuzzBegin, 0, c)
			decompressed = append(decompressed, &d)
		}
		servedTrace, err := trace.FromEntries(decompressed, wmslog.TraceEpoch, horizon)
		if err != nil {
			t.Fatal(err)
		}
		offeredTrace, err := oracleOfferedTrace(offered, horizon)
		if err != nil {
			t.Fatal(err)
		}

		got, gotOK := SafeTimeout(offered, horizon, slack)
		want, wantOK := oracleSafeTimeout(offeredTrace, slack)
		if got != want || gotOK != wantOK {
			t.Fatalf("SafeTimeout(slack %d) = %d, %v; the reference %d, %v", slack, got, gotOK, want, wantOK)
		}
		if gotOK {
			timeout = got
		}
		wantReport, err := oracleCompareTraces(offeredTrace, servedTrace, timeout)
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		paths := []string{
			writeServedLog(t, filepath.Join(dir, "node1.log"), files[0], formats[0]),
			writeServedLog(t, filepath.Join(dir, "node2.log"), files[1], formats[1]),
		}
		for _, order := range [][]string{paths, {paths[1], paths[0]}} {
			srv, st, err := ReadServed(order, fuzzBegin, 0, c, failed)
			if err != nil {
				t.Fatal(err)
			}
			if st.Entries != len(logged) || st.Malformed != 0 {
				t.Fatalf("read %d entries, %d malformed, of %d logged", st.Entries, st.Malformed, len(logged))
			}
			if srv.DroppedLost != droppedLost || srv.DroppedDup != droppedDup {
				t.Fatalf("mutation %d, logs %v: dropped %d lost and %d duplicate entries, the reference %d and %d",
					mutation, order, srv.DroppedLost, srv.DroppedDup, droppedLost, droppedDup)
			}
			if got, want := srv.Realization(), digest.Digest(); got != want {
				t.Fatalf("logs %v: realization %s, the logged entries' %s", order, got, want)
			}
			report, err := Check(offered, srv, timeout)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(report, wantReport) {
				t.Fatalf("mutation %d, T_o %d, logs %v: Check\n%s\nthe reference\n%s", mutation, timeout, order, report, wantReport)
			}
			// At compression 1 the log's whole seconds are the trace's;
			// above it they move a reconstructed gap by less than 4
			// trace seconds a unit of compression.
			if (mutation == 0 || mutation >= 5) && (c == 1 || gotOK && float64(slack) >= 4*c) && !report.Match() {
				t.Fatalf("mutation %d at compression %v: the reconciled served log does not match:\n%s", mutation, c, report)
			}
		}
	})
}

// TestCheckRejectsUnorderedOrBadTimeout: Check refuses offered events
// out of start order, a client id a transfer cannot hold and a
// non-positive timeout.
func TestCheckRejectsUnorderedOrBadTimeout(t *testing.T) {
	served, err := newServed(fuzzBegin, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		events  []workload.Event
		timeout int64
	}{
		{[]workload.Event{{Client: 1, Start: 10}, {Client: 2, Start: 5}}, 60},
		{[]workload.Event{{Client: 1 << 40, Start: 10}}, 60},
		{nil, 0},
	} {
		if _, err := Check(tc.events, served, tc.timeout); err == nil {
			t.Errorf("Check(%v, T_o %d) accepted", tc.events, tc.timeout)
		}
	}
}
