package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/wmslog"
)

const fixtureDays = 7

// writeLogFixture writes seven daily logs that between them hold what
// an ingest has to get right: a text, a gzip and a binary file next to
// each other; garbage lines inside a text file; a file whose every line
// is re-spaced (runs of tabs, spaces, \v and \r between and around the
// columns), between a binary file and a canonical one; spanning entries (duration beyond
// the horizon) and an entry stamped before the epoch for Sanitize to
// drop; a player first seen on day 4 and reused on the days after, so
// its id depends on every earlier file; players that turn up under a
// second IP, IPs shared by two players, and IPs under a second AS;
// and transfers that tie on (Start, Client, Object) but differ in
// bytes, within a file and across files. It returns the paths in
// shuffled order.
func writeLogFixture(t *testing.T, dir string) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	var paths []string
	for day := 0; day < fixtureDays; day++ {
		dayStart := wmslog.TraceEpoch.Add(time.Duration(day) * 24 * time.Hour)
		var entries []*wmslog.Entry
		var moveIP, moveAS int // nonzero: this entry's player is at a neighbour's IP / its IP under another AS
		add := func(sec int64, player int, uri string, dur, bytes int64) {
			at := player + moveIP
			entries = append(entries, &wmslog.Entry{
				Timestamp:    dayStart.Add(time.Duration(sec) * time.Second),
				ClientIP:     fmt.Sprintf("10.0.%d.%d", at/200, at%200),
				PlayerID:     fmt.Sprintf("player-%04d", player),
				ClientOS:     []string{"Windows 98", "Windows XP", ""}[player%3],
				ClientCPU:    "Pentium III",
				URIStem:      uri,
				Duration:     dur,
				Bytes:        bytes,
				AvgBandwidth: 56000,
				ServerCPU:    float64(player%90) / 10,
				Referer:      "http://show.example.br/aovivo",
				Status:       200,
				ASNumber:     1 + (player+moveAS)%7,
				Country:      []string{"BR", "US", ""}[player%3],
			})
		}
		for sec := int64(600); sec < 86000; sec += 20 + rng.Int63n(120) {
			// Later days draw on players the earlier files never saw.
			player := rng.Intn(40 + 15*day)
			moveIP, moveAS = max(rng.Intn(10)-8, 0), max(rng.Intn(10)-8, 0)
			add(sec, player, []string{"/live/feed1", "/live/feed2"}[rng.Intn(2)], rng.Int63n(500), 1000+rng.Int63n(1<<20))
		}
		moveIP, moveAS = 0, 0
		add(40000, 7, "/live/feed1", 100, 111) // same start, client and object,
		add(40000, 7, "/live/feed1", 100, 222) // different bytes: a true tie
		add(40050, 7, "/live/feed1", 150, 333) // and a third one by another route
		if day >= 3 {
			add(50000+int64(day), 999, "/live/feed2", 30, 4242) // the late player
		}
		if day == fixtureDays-1 {
			// Ends at second 40000 of day 0 + 6 days: ties with nothing, but
			// the start (end - duration) lands inside day 0's tie cluster.
			add(40000, 7, "/live/feed1", 100+(fixtureDays-1)*86400, 555)
		}
		if day%2 == 1 {
			add(70000, 3, "/live/feed1", (fixtureDays+10)*86400, 1) // spanning
		}
		if day == 0 {
			add(30, 5, "/live/feed2", 600, 1) // starts before the epoch
		}
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Timestamp.Before(entries[j].Timestamp) })

		path := filepath.Join(dir, "wms-"+dayStart.Format("2006-01-02")+".log")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var w wmslog.EntryWriter = wmslog.NewWriter(f)
		if day == 2 || day == 4 {
			w = wmslog.NewBinaryWriter(f)
		}
		for i, e := range entries {
			if day == 5 {
				line := "  " + strings.ReplaceAll(string(wmslog.AppendEntry(nil, e)), " ", "\t \v") + "\r"
				if _, err := fmt.Fprintln(f, line); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
			if day == 3 && i%50 == 0 {
				// Garbage between entries, through the same buffered writer.
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(f, "not a log line %d\n2002-13-45 oops\n", i)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if day == 1 {
			if path, err = wmslog.CompressFile(path); err != nil {
				t.Fatal(err)
			}
		}
		paths = append(paths, path)
	}
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths
}

func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestFromLogsMatchesFromEntries: the one-pass, file-parallel ingest
// held whole (SortLogs) must yield exactly what materializing every
// entry and building the trace sequentially does — same transfers in
// the same order with the same ids, same country table, same parse
// bookkeeping, same sanitize report — whether it runs inline or on
// more workers than there are files.
func TestFromLogsMatchesFromEntries(t *testing.T) {
	paths := writeLogFixture(t, t.TempDir())
	const horizon = fixtureDays * 86400

	entries, wantStats, err := wmslog.ReadFiles(paths, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FromEntries(entries, wmslog.TraceEpoch, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want, wantReport := raw.Sanitize()
	if wantStats.Malformed == 0 || wantStats.Binary == 0 || wantStats.Binary >= wantStats.Entries {
		t.Fatalf("fixture lost its mix of garbage, binary and text: %+v", wantStats)
	}
	type pair struct{ a, b uint32 }
	clientIPs, ipASes := map[pair]bool{}, map[pair]bool{}
	for _, x := range want.Transfers {
		clientIPs[pair{uint32(x.Client), x.IP}], ipASes[pair{x.IP, x.AS}] = true, true
	}
	if c := want.Census(); len(clientIPs) <= numClients(want) || len(clientIPs) <= c.IPs || len(ipASes) <= c.IPs || len(want.Names.Countries) < 3 {
		t.Fatalf("fixture lost its players under two IPs, its shared IPs, its IPs under two ASes or its countries: %d clients, %d IPs, %d client-IP and %d IP-AS pairs, countries %q",
			numClients(want), c.IPs, len(clientIPs), len(ipASes), want.Names.Countries)
	}
	// The ids are what a sequential pass over the entries meets, in the
	// order it meets them: each row's player and IP by their first-seen
	// ordinals, and the country table in first-seen order.
	type ids struct {
		start, duration, bytes int64
		client                 int32
		ip                     uint32
	}
	byFields := func(a, b ids) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.duration, b.duration), cmp.Compare(a.bytes, b.bytes),
			cmp.Compare(a.client, b.client), cmp.Compare(a.ip, b.ip))
	}
	var wantIDs, gotIDs []ids
	var wantNames Names
	player, ip, seenCountry := map[string]int32{}, map[string]uint32{}, map[string]bool{}
	for _, e := range entries {
		if _, ok := player[e.PlayerID]; !ok {
			player[e.PlayerID] = int32(len(player))
		}
		if _, ok := ip[e.ClientIP]; !ok {
			ip[e.ClientIP] = uint32(len(ip))
		}
		if !seenCountry[e.Country] {
			seenCountry[e.Country] = true
			wantNames.Countries = append(wantNames.Countries, e.Country)
		}
		end := int64(e.Timestamp.Sub(wmslog.TraceEpoch) / time.Second)
		wantIDs = append(wantIDs, ids{end - e.Duration, e.Duration, e.Bytes, player[e.PlayerID], ip[e.ClientIP]})
	}
	for _, x := range raw.Transfers {
		gotIDs = append(gotIDs, ids{x.Start, x.Duration, x.Bytes, x.Client, x.IP})
	}
	slices.SortFunc(wantIDs, byFields)
	slices.SortFunc(gotIDs, byFields)
	if !slices.Equal(gotIDs, wantIDs) {
		t.Fatal("FromEntries numbers players or IPs other than in first-seen order")
	}
	if !reflect.DeepEqual(*want.Names, wantNames) {
		t.Fatalf("FromEntries country table %q differs from first-seen order %q", want.Names.Countries, wantNames.Countries)
	}
	if wantReport.DroppedSpanning == 0 || wantReport.DroppedOutside == 0 {
		t.Fatalf("fixture lost its entries to sanitize: %v", wantReport)
	}

	// Day 6 holds a kept transfer that starts on day 0: the merge has
	// handed on later rows by then.
	checkSortLogs(t, paths, horizon, want, wantStats, wantReport, false)
}

// sortLogs is SortLogs over paths with the rows it hands on collected.
func sortLogs(paths []string, horizon int64) ([]Transfer, Ingest, error) {
	var rows []Transfer
	ing, err := SortLogs(paths, wmslog.TraceEpoch, horizon, func(x *Transfer) { rows = append(rows, *x) })
	return rows, ing, err
}

// checkSortLogs runs SortLogs over paths at GOMAXPROCS 1, 2 and 8 and
// holds what it hands on and reports to want, wantStats and wantReport:
// the rows bit for bit, the country table, the parse bookkeeping and
// the sanitize report, and ordered as given. StreamLogs must report
// ordered as given too: when the files stream in order it hands on
// exactly want's rows with the same bookkeeping, and when they do not,
// only rows in the trace order before it stops.
func checkSortLogs(t *testing.T, paths []string, horizon int64, want *Trace, wantStats wmslog.ParseStats, wantReport SanitizeReport, ordered bool) {
	t.Helper()
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			rows, ing, err := sortLogs(paths, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if ing.Stats != wantStats {
				t.Errorf("parse stats %+v, want %+v", ing.Stats, wantStats)
			}
			if ing.Report != wantReport {
				t.Errorf("sanitize report %v, want %v", ing.Report, wantReport)
			}
			if ing.Ordered != ordered {
				t.Errorf("SortLogs ordered %v, want %v", ing.Ordered, ordered)
			}
			if len(rows) != len(want.Transfers) {
				t.Fatalf("%d rows, want %d", len(rows), len(want.Transfers))
			}
			for i := range rows {
				if rows[i] != want.Transfers[i] {
					t.Fatalf("transfer %d:\n got %+v\nwant %+v", i, rows[i], want.Transfers[i])
				}
			}
			if !reflect.DeepEqual(ing.Names, want.Names) {
				t.Errorf("countries %q, want %q", ing.Names.Countries, want.Names.Countries)
			}
			checkStreamLogs(t, paths, want, wantStats, wantReport, ordered)
		})
	}
}

// checkStreamLogs holds StreamLogs over paths to want, the trace the
// logs hold: see checkSortLogs.
func checkStreamLogs(t *testing.T, paths []string, want *Trace, wantStats wmslog.ParseStats, wantReport SanitizeReport, ordered bool) {
	t.Helper()
	var rows []Transfer
	ing, err := StreamLogs(paths, wmslog.TraceEpoch, want.Horizon, func(x *Transfer) { rows = append(rows, *x) })
	if err != nil {
		t.Fatal(err)
	}
	if ing.Ordered != ordered {
		t.Fatalf("StreamLogs ordered %v, want %v", ing.Ordered, ordered)
	}
	if !ordered {
		for i := 1; i < len(rows); i++ {
			if before(&rows[i], &rows[i-1]) {
				t.Fatalf("StreamLogs handed on row %d out of the trace order before it stopped", i)
			}
		}
		return
	}
	if ing.Stats != wantStats || ing.Report != wantReport || !reflect.DeepEqual(ing.Names, want.Names) {
		t.Errorf("StreamLogs reports %+v, %v and countries %q; want %+v, %v and %q",
			ing.Stats, ing.Report, ing.Names.Countries, wantStats, wantReport, want.Names.Countries)
	}
	if !slices.Equal(rows, want.Transfers) {
		t.Errorf("StreamLogs handed on %d rows, want the trace's %d in its order", len(rows), want.NumTransfers())
	}
}

// fromEntriesSanitized is the sequential reference the ingest is held
// to: every file read into entries, one trace built, then sanitized.
func fromEntriesSanitized(t *testing.T, paths []string, horizon int64) (*Trace, wmslog.ParseStats, SanitizeReport) {
	t.Helper()
	entries, st, err := wmslog.ReadFiles(paths, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FromEntries(entries, wmslog.TraceEpoch, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want, report := raw.Sanitize()
	return want, st, report
}

// writeDays writes one text log per element of days, each entry
// stamped at its transfer's end, an empty element an empty file. terse
// leaves out every optional field and keeps the others short, so the
// lines are about half as long as wmslog.EntryHint assumes.
func writeDays(t *testing.T, dir string, days [][][2]int64, terse bool) []string {
	t.Helper()
	var paths []string
	for d, rows := range days {
		path := filepath.Join(dir, "wms-"+wmslog.TraceEpoch.Add(time.Duration(d)*24*time.Hour).Format("2006-01-02")+".log")
		var b []byte
		for i, r := range rows { // r: (end, duration)
			e := &wmslog.Entry{
				Timestamp: wmslog.TraceEpoch.Add(time.Duration(r[0]) * time.Second), Duration: r[1],
				ClientIP: fmt.Sprintf("10.0.%d.%d", i%7, d), PlayerID: fmt.Sprintf("p%d", (i*7+d)%23),
				ClientOS: "Windows 98", ClientCPU: "Pentium III", Referer: "http://show.example.br/aovivo",
				URIStem: "/live/feed1", Bytes: int64(i), AvgBandwidth: 56000, Status: 200, ASNumber: 7, Country: "BR",
			}
			if terse {
				e.ClientIP, e.PlayerID, e.URIStem, e.AvgBandwidth = fmt.Sprintf("1.0.0.%d", i%7), "p", "/a", 1
				e.ClientOS, e.ClientCPU, e.Referer, e.Country = "", "", "", ""
			}
			b = append(wmslog.AppendEntry(b, e), '\n')
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestFromLogsInPlaceMergeEdges: the streaming merge of the daily
// files, where they overlap most and least — a daily harvest, whose
// files reach back only by the transfers that span a midnight, streams
// in order, and so does a file reaching back past only the file before
// it; transfers that span two and more midnights reach back past rows
// already handed on, so StreamLogs stops and SortLogs sorts; an
// empty daily file (no watermark: the run before it is handed on
// whole) among full ones; and files holding more lines than
// wmslog.EntryHint assumes (terse ones), so that the presized slice of
// rows must grow. Each is what ReadFiles + FromEntries + Sanitize
// builds, at GOMAXPROCS 1, 2 and 8.
func TestFromLogsInPlaceMergeEdges(t *testing.T) {
	const days = 6
	const horizon = days * 86400
	rng := rand.New(rand.NewSource(36))
	day := func(d int, n int, maxSpan int64) [][2]int64 {
		rows := make([][2]int64, n)
		for i := range rows {
			end := int64(d)*86400 + rng.Int63n(86400)
			rows[i] = [2]int64{end, min(rng.Int63n(maxSpan), end)}
		}
		slices.SortFunc(rows, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		return rows
	}
	cases := []struct {
		name    string
		days    [][][2]int64
		terse   bool
		ordered bool
	}{
		{"daily harvest", [][][2]int64{day(0, 300, 600), day(1, 300, 12*3600), day(2, 300, 5000), day(3, 300, 12*3600), day(4, 300, 600), day(5, 300, 3600)}, false, true},
		{"spans midnights", [][][2]int64{day(0, 300, 600), day(1, 300, 3*86400), day(2, 40, 200), day(3, 300, 2*86400+5000), day(4, 300, 600), day(5, 5, 5*86400)}, false, false},
		{"empty day", [][][2]int64{day(0, 200, 4000), {}, day(2, 200, 2*86400), {}, day(4, 1, 600), day(5, 200, 600)}, false, false},
		{"empty day, short spans", [][][2]int64{day(0, 200, 4000), {}, day(2, 200, 4000), {}, day(4, 1, 600), day(5, 200, 600)}, false, true},
		// Day 1 reaches back to day 0 and day 3 to day 2, but each only
		// past the file before it: its low is that file's watermark.
		{"more lines than hinted", [][][2]int64{day(0, 400, 4000), day(1, 400, 2*86400), day(2, 400, 600), day(3, 400, 90000)}, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			paths := writeDays(t, t.TempDir(), c.days, c.terse)
			want, st, report := fromEntriesSanitized(t, paths, horizon)
			hints := 0
			for _, p := range paths {
				hints += wmslog.EntryHint(p)
			}
			if c.terse && hints >= st.Entries {
				t.Fatalf("the hints cover %d rows of %d: nothing grows", hints, st.Entries)
			}
			checkSortLogs(t, paths, horizon, want, st, report, c.ordered)
		})
	}
}

// TestStreamLogsHeldFlatInHorizon: what the ingest holds at once is set
// by the days' rows, not by how many days there are. A log whose every
// day holds the same transfers — some spanning midnight, so the merge
// holds a tail — streams in order and holds the same most at 7 days as
// at 28, within ParseAhead + 2 days of rows.
func TestStreamLogsHeldFlatInHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	day := make([][2]int64, 300)
	for i := range day {
		day[i] = [2]int64{rng.Int63n(86400), rng.Int63n(6 * 3600)} // up to 6 h: some span midnight
	}
	slices.SortFunc(day, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	held := map[int]int{}
	for _, days := range []int{7, 28} {
		log := make([][][2]int64, days)
		for d := range log {
			for _, r := range day {
				log[d] = append(log[d], [2]int64{r[0] + int64(d)*86400, r[1]})
			}
		}
		paths := writeDays(t, t.TempDir(), log, false)
		ing, err := StreamLogs(paths, wmslog.TraceEpoch, int64(days)*86400, func(*Transfer) {})
		if err != nil || !ing.Ordered {
			t.Fatalf("%d days: ordered %v, error %v", days, ing.Ordered, err)
		}
		if ing.Held <= len(day) || ing.Held > (ParseAhead+2)*len(day) {
			t.Errorf("%d days: held %d rows at once, want more than a day and at most %d days of %d", days, ing.Held, ParseAhead+2, len(day))
		}
		held[days] = ing.Held
	}
	if held[7] != held[28] {
		t.Errorf("held %d rows at once over 7 days, %d over 28", held[7], held[28])
	}
}

// TestFromLogsReportsFirstFailingFile: whatever fails, the error is
// the one a sequential ReadFiles + FromEntries pass returns, on every
// run, however the workers interleave; and every goroutine is gone when
// SortLogs returns. Three failures: two corrupt files, the first of
// which the identity stage is waiting on when it fails; the last file
// failing; and an id overflow raised inside the identity stage, after
// every file parsed. StreamLogs reports the same error, unless it
// stopped out of order before it read the failing file.
func TestFromLogsReportsFirstFailingFile(t *testing.T) {
	dayPath := func(dir string, day int) string {
		return filepath.Join(dir, "wms-"+wmslog.TraceEpoch.Add(time.Duration(day)*24*time.Hour).Format("2006-01-02")+".log")
	}
	// Each setup returns the paths and what the sequential error must
	// name: the first corrupt file, the last file, the overflowing column.
	cases := []struct {
		name  string
		setup func(t *testing.T, dir string) (paths []string, names string)
	}{
		{"two corrupt files", func(t *testing.T, dir string) ([]string, string) {
			paths := writeLogFixture(t, dir)
			// Days 2 and 4 are the binary files: cut both mid-record.
			for _, day := range []int{2, 4} {
				info, err := os.Stat(dayPath(dir, day))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(dayPath(dir, day), info.Size()/2+1); err != nil {
					t.Fatal(err)
				}
			}
			return paths, dayPath(dir, 2)
		}},
		{"last file", func(t *testing.T, dir string) ([]string, string) {
			last := dayPath(dir, fixtureDays) + ".gz"
			if err := os.WriteFile(last, []byte("not gzip"), 0o644); err != nil {
				t.Fatal(err)
			}
			return append(writeLogFixture(t, dir), last), last
		}},
		{"id overflow", func(t *testing.T, dir string) ([]string, string) {
			return overflowLogs(t, dir, "country"), errTooMany(wmslog.ColCountry).Error()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			paths, names := c.setup(t, t.TempDir())
			var wantErr error
			entries, _, err := wmslog.ReadFiles(paths, true)
			if wantErr = err; err == nil {
				_, wantErr = FromEntries(entries, wmslog.TraceEpoch, fixtureDays*86400)
			}
			if wantErr == nil || !strings.Contains(wantErr.Error(), names) {
				t.Fatalf("sequential reference error %v, want one naming %s", wantErr, names)
			}

			setGOMAXPROCS(t, 8)
			before := runtime.NumGoroutine()
			for run := 0; run < 25; run++ {
				rows, _, err := sortLogs(paths, fixtureDays*86400)
				if rows != nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("run %d: %d rows, error %v, want none and the sequential error %v", run, len(rows), err, wantErr)
				}
				// A stream that stops out of order first has read no further.
				ing, err := StreamLogs(paths, wmslog.TraceEpoch, fixtureDays*86400, func(*Transfer) {})
				if (err == nil) == ing.Ordered || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("run %d: StreamLogs ordered %v, error %v, want the sequential error %v", run, ing.Ordered, err, wantErr)
				}
			}
			// SortLogs joins its workers and sorts before returning; allow
			// the runtime a bounded moment to retire them.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%d goroutines before, %d after 25 failing ingests — goroutines leaked", before, got)
			}
		})
	}
}

// TestFromLogsAllocationsFlatInWorkers: a value is allocated once per
// build, not once per worker that meets it — the parse workers intern no
// identity, so eight of them allocate what one does, within 5 %.
func TestFromLogsAllocationsFlatInWorkers(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	rng := rand.New(rand.NewSource(31))
	for day := 0; day < 8; day++ {
		path := filepath.Join(dir, fmt.Sprintf("wms-2002-01-%02d.log", 6+day))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := wmslog.NewWriter(f)
		for i := 0; i < 800; i++ {
			player := rng.Intn(2000) // every file meets most players
			e := &wmslog.Entry{
				Timestamp: wmslog.TraceEpoch.Add(time.Duration(day*86400+100+i*90) * time.Second),
				ClientIP:  fmt.Sprintf("10.%d.%d.%d", player%7, player/200, player%200), PlayerID: fmt.Sprintf("player-%05d", player),
				ClientOS: "Windows 98", ClientCPU: "Pentium III", URIStem: "/live/feed1", Duration: 60, Bytes: 1000,
				AvgBandwidth: 56000, Status: 200, ASNumber: 1 + player%9, Country: "BR",
			}
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
		paths = append(paths, path)
	}
	allocs := func(procs int) float64 {
		setGOMAXPROCS(t, procs)
		const runs = 5
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < runs; i++ {
			if _, err := SortLogs(paths, wmslog.TraceEpoch, 14*86400, func(*Transfer) {}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs-before) / runs
	}
	one, eight := allocs(1), allocs(8)
	if eight > 1.05*one {
		t.Errorf("%.0f allocations a build at GOMAXPROCS 8 against %.0f at 1: more than 5 %% apart", eight, one)
	}
}

// totalOrder is the reference trace order, written out field by field:
// (Start, Client, Object), then every other field, so that only
// identical transfers tie.
func totalOrder(a, b Transfer) bool {
	ka := []float64{float64(a.Start), float64(a.Client), float64(a.Object), float64(a.Duration), float64(a.Bytes),
		float64(a.Bandwidth), a.ServerCPU, float64(a.IP), float64(a.AS), float64(a.Country)}
	kb := []float64{float64(b.Start), float64(b.Client), float64(b.Object), float64(b.Duration), float64(b.Bytes),
		float64(b.Bandwidth), b.ServerCPU, float64(b.IP), float64(b.AS), float64(b.Country)}
	return slices.Compare(ka, kb) < 0
}

// tieHeavy returns n transfers that collide on (Start, Client, Object)
// in clusters and differ, within a cluster, in each of the other fields
// in turn — with exact duplicates among them.
func tieHeavy(rng *rand.Rand, n int) []Transfer {
	in := make([]Transfer, n)
	for i := range in {
		t := Transfer{
			Client: int32(rng.Intn(4)),
			Object: uint16(rng.Intn(2)),
			Start:  int64(i/6) + rng.Int63n(3), // nearly sorted, tie-heavy
		}
		switch rng.Intn(8) { // which of the other fields tells tied transfers apart
		case 0:
			t.Duration = rng.Int63n(3)
		case 1:
			t.Bytes = rng.Int63n(3)
		case 2:
			t.Bandwidth = rng.Int63n(3)
		case 3:
			t.ServerCPU = float64(rng.Intn(3)) / 4
		case 4:
			t.IP = uint32(rng.Intn(3))
		case 5:
			t.AS = uint32(rng.Intn(3))
		case 6:
			t.Country = uint16(rng.Intn(3))
		} // 7: nothing — a duplicate of any other such transfer
		in[i] = t
	}
	return in
}

// TestTraceOrderMatchesReference: the trace order is the total order
// the reference sort.Slice over every field produces — (Start, Client,
// Object) first, the order the characterization reads, then the rest.
func TestTraceOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 7, 13, 100, 5000} {
		in := tieHeavy(rng, n)
		want := slices.Clone(in)
		sort.Slice(want, func(i, j int) bool { return totalOrder(want[i], want[j]) })
		tr, err := New(1000, in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tr.Transfers, want) {
			t.Errorf("n=%d: trace order differs from the sort.Slice reference", n)
		}
	}
	// The readings no comparison orders are ordered too.
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, pair := range [][2]float64{{0, negZero}, {nan, 1}, {nan, math.Float64frombits(math.Float64bits(nan) + 1)}} {
		a, b := &Transfer{ServerCPU: pair[0]}, &Transfer{ServerCPU: pair[1]}
		if before(a, b) == before(b, a) {
			t.Errorf("CPU readings %v and %v (bits %x, %x) do not order", pair[0], pair[1], math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}
}

// TestTraceOrderIsTotal: a trace is a function of the multiset of its
// transfers. Twenty shuffles of one tie-heavy input give one trace
// through New; and, for transfers whose ids a build
// hands out (one player, IP, object and country, so no shuffle can
// renumber them), through FromEntries and through SortLogs over the
// entries written out as 1, 3 or 7 files.
func TestTraceOrderIsTotal(t *testing.T) {
	const horizon = 86400
	rng := rand.New(rand.NewSource(27))
	in := tieHeavy(rng, 600)
	logged := make([]Transfer, len(in))
	for i, x := range in {
		x.Start += 1000 // clear of the epoch, so Sanitize keeps everything
		x.Client, x.IP, x.Object, x.Country = 0, 0, 0, 0
		logged[i] = x
	}
	want, err := New(horizon, in)
	if err != nil {
		t.Fatal(err)
	}
	wantLogged, err := New(horizon, logged)
	if err != nil {
		t.Fatal(err)
	}
	for shuffle := 0; shuffle < 20; shuffle++ {
		perm := rng.Perm(len(in))
		ts, lts := make([]Transfer, len(in)), make([]Transfer, len(in))
		for i, k := range perm {
			ts[i], lts[i] = in[k], logged[k]
		}
		tr, err := New(horizon, ts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tr.Transfers, want.Transfers) {
			t.Fatalf("shuffle %d: New's trace differs", shuffle)
		}
		entries := make([]*wmslog.Entry, len(lts))
		for i, x := range lts {
			entries[i] = &wmslog.Entry{
				Timestamp: wmslog.TraceEpoch.Add(time.Duration(x.End()) * time.Second), ClientIP: "10.0.0.1", PlayerID: "p",
				URIStem: "/live/feed1", Duration: x.Duration, Bytes: x.Bytes, AvgBandwidth: x.Bandwidth,
				ServerCPU: x.ServerCPU, Status: 200, ASNumber: int(x.AS), Country: "BR",
			}
		}
		got, err := FromEntries(entries, wmslog.TraceEpoch, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Transfers, wantLogged.Transfers) {
			t.Fatalf("shuffle %d: FromEntries' trace differs", shuffle)
		}
		for _, files := range []int{1, 3, 7} {
			dir := t.TempDir()
			var paths []string
			for k := 0; k < files; k++ {
				path := filepath.Join(dir, fmt.Sprintf("wms-part-%d.log", k))
				f, err := os.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				w := wmslog.NewWriter(f)
				for i := k; i < len(entries); i += files {
					if err := w.Write(entries[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, path)
			}
			got, ing, err := sortLogs(paths, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if ing.Report.Kept != len(in) || !slices.Equal(got, wantLogged.Transfers) {
				t.Fatalf("shuffle %d, %d files: SortLogs' rows differ (%s)", shuffle, files, ing.Report)
			}
		}
	}
}

// TestSortTraceOrderMatchesFullSort: sorting per run of equal starts
// gives the full sort's result on start-ordered input whose ties
// arrive in every order, and the fallback does on input with a start
// out of order anywhere — first, last or in the middle of a tie run.
func TestSortTraceOrderMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(300)
		ts := make([]Transfer, n)
		start := int64(0)
		for i := range ts {
			if rng.Intn(3) == 0 {
				start += rng.Int63n(5)
			}
			ts[i] = Transfer{Client: int32(rng.Intn(4)), Object: uint16(rng.Intn(2)), Start: start, Duration: rng.Int63n(3), Bytes: rng.Int63n(3)}
		}
		if round%2 == 1 {
			k := rng.Intn(n)
			ts[k].Start -= 1 + rng.Int63n(3)
		}
		want := slices.Clone(ts)
		sort.Sort(byStart(want))
		sortTraceOrder(ts)
		if !slices.Equal(ts, want) {
			t.Fatalf("round %d: per-run sort differs from the full sort", round)
		}
	}
}

// TestTransferRow pins the row's shape: at most 56 bytes, and no field
// of a kind that holds a pointer — so a trace is one span the garbage
// collector never scans and sorting it runs no write barrier.
func TestTransferRow(t *testing.T) {
	row := reflect.TypeOf(Transfer{})
	if row.Size() > 56 {
		t.Errorf("Transfer is %d bytes, want at most 56", row.Size())
	}
	for i := 0; i < row.NumField(); i++ {
		switch f := row.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Bool:
		default:
			t.Errorf("Transfer.%s is a %s: the row must stay pointer-free and fixed-width", f.Name, f.Type.Kind())
		}
	}
}

// TestIDOverflowIsAnError: the 65,537th distinct country (or object)
// does not fit the row's 16-bit id. The build must say so — within one
// file, and when only the files together exceed the limit — and never
// wrap the id; 65,536 of them are fine.
func TestIDOverflowIsAnError(t *testing.T) {
	const limit = 1 << 16
	for _, col := range []string{"country", "object"} {
		entries := overflowEntries(col)
		tr, err := FromEntries(entries[:limit], wmslog.TraceEpoch, 86400)
		if err != nil {
			t.Fatalf("%d distinct %s values: %v", limit, col, err)
		}
		last := tr.Transfers[len(tr.Transfers)-1]
		if id := map[string]uint16{"country": last.Country, "object": last.Object}[col]; id != limit-1 {
			t.Errorf("%s: last id %d, want %d", col, id, limit-1)
		}
		if _, err := FromEntries(entries, wmslog.TraceEpoch, 86400); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%d distinct %s values in one build: err = %v, want ErrBadTrace", limit+1, col, err)
		}

		// Two files, neither over the limit alone.
		if rows, _, err := sortLogs(overflowLogs(t, t.TempDir(), col), 86400); rows != nil || !errors.Is(err, ErrBadTrace) {
			t.Errorf("%d distinct %s values across two files: %d rows, err = %v, want ErrBadTrace", limit+1, col, len(rows), err)
		}
	}

	e := overflowEntries("country")[0]
	e.ASNumber = 1 << 32
	if _, err := FromEntries([]*wmslog.Entry{e}, wmslog.TraceEpoch, 86400); !errors.Is(err, ErrBadTrace) {
		t.Errorf("AS number 2^32: err = %v, want ErrBadTrace", err)
	}
}

// TestIngestRefusesHorizonUpFront: a horizon no trace can have — 0, or
// one past 2³¹ s — fails before any file is parsed: no line read, no
// row emitted.
func TestIngestRefusesHorizonUpFront(t *testing.T) {
	paths := writeLogFixture(t, t.TempDir())
	for _, horizon := range []int64{0, math.MaxInt32 + 1} {
		emitted := 0
		ing, err := StreamLogs(paths, wmslog.TraceEpoch, horizon, func(*Transfer) { emitted++ })
		if !errors.Is(err, ErrBadTrace) || emitted != 0 || ing.Stats != (wmslog.ParseStats{}) {
			t.Errorf("StreamLogs at horizon %d: err = %v, %d rows emitted, stats %+v; want ErrBadTrace and nothing read", horizon, err, emitted, ing.Stats)
		}
		if rows, ing, err := sortLogs(paths, horizon); rows != nil || !errors.Is(err, ErrBadTrace) || ing.Stats != (wmslog.ParseStats{}) {
			t.Errorf("SortLogs at horizon %d: %d rows, err = %v, stats %+v; want ErrBadTrace and nothing read", horizon, len(rows), err, ing.Stats)
		}
	}
}

// overflowEntries returns 2¹⁶ + 1 entries with as many distinct values
// of one column ("country" or "object") — one more than a transfer can
// number.
func overflowEntries(col string) []*wmslog.Entry {
	entries := make([]*wmslog.Entry, 1<<16+1)
	for i := range entries {
		entries[i] = &wmslog.Entry{
			Timestamp: wmslog.TraceEpoch.Add(time.Duration(100+i) * time.Second), ClientIP: "1.1.1.1",
			PlayerID: "p", URIStem: "/live/feed1", Duration: 10, Status: 200, ASNumber: 1,
		}
		if col == "country" {
			entries[i].Country = fmt.Sprintf("c%d", i)
		} else {
			entries[i].URIStem = fmt.Sprintf("/live/%d", i)
		}
	}
	return entries
}

// overflowLogs writes overflowEntries(col) to dir as two binary daily
// logs, neither over the limit alone, and returns their paths.
func overflowLogs(t *testing.T, dir, col string) []string {
	t.Helper()
	entries := overflowEntries(col)
	var paths []string
	for k, part := range [][]*wmslog.Entry{entries[:len(entries)/2], entries[len(entries)/2:]} {
		path := filepath.Join(dir, fmt.Sprintf("wms-2002-01-0%d.log", 6+k))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := wmslog.NewBinaryWriter(f)
		for _, e := range part {
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
		paths = append(paths, path)
	}
	return paths
}

// TestStreamMatchesNewSanitize: rows handed to a Stream in start order
// — ties in arrival order, spanning rows out of order among them, rows
// for sanitizing to drop — come out as the rows of the trace New
// followed by Sanitize builds from the same transfers, in its order,
// with the same report; and a kept row that starts before an earlier
// kept one is an error.
func TestStreamMatchesNewSanitize(t *testing.T) {
	const horizon = 20000
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{0, 1, 7, 5000} {
		in := make([]Transfer, 0, n)
		start := int64(-2)
		for i := 0; i < n; i++ {
			start += rng.Int63n(3) // ties, a few before 0
			x := Transfer{Client: int32(rng.Intn(5)), Object: uint16(rng.Intn(2)), Start: start, Duration: rng.Int63n(horizon / 4), Bytes: rng.Int63n(3)}
			if i%97 == 96 {
				x.Duration = -1
			}
			in = append(in, x)
			if i%50 == 49 { // a spanning twin, out of start order
				in = append(in, Transfer{Client: x.Client, Start: x.End() - horizon - 5, Duration: horizon + 5})
			}
		}
		var got []Transfer
		s, err := NewStream(horizon, func(x *Transfer) { got = append(got, *x) })
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range in {
			if err := s.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		report := s.Close()
		all, err := New(horizon, in)
		if err != nil {
			t.Fatal(err)
		}
		want, wantReport := all.Sanitize()
		if report != wantReport {
			t.Errorf("n=%d: report %v, want %v", n, report, wantReport)
		}
		if !slices.Equal(got, want.Transfers) {
			t.Errorf("n=%d: streamed %d rows, want the sanitized trace's %d, in its order", n, len(got), want.NumTransfers())
		}
		if n == 5000 && (wantReport.DroppedSpanning == 0 || wantReport.DroppedNegative == 0 || wantReport.DroppedOutside == 0) {
			t.Errorf("fixture exercises too little: %v", wantReport)
		}
	}
	s, err := NewStream(horizon, func(*Transfer) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Transfer{Start: 10, Duration: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Transfer{Start: 9, Duration: 1}); !errors.Is(err, ErrBadTrace) {
		t.Errorf("a kept row out of start order: err %v, want ErrBadTrace", err)
	}
	if _, err := NewStream(0, func(*Transfer) {}); err == nil {
		t.Error("zero horizon: want error")
	}
}
