package trace

import (
	"errors"
	"fmt"
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
// the fast path refuses and the legacy splitter accepts, between a
// binary file and a canonical one; spanning entries (duration beyond
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
				// A doubled separator: the fast path refuses every line of
				// this file, the legacy splitter reads them all.
				line := strings.Replace(string(wmslog.AppendEntry(nil, e)), " ", "  ", 1)
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
// must yield exactly what materializing every entry and building the
// trace sequentially does — same transfers in the same order with the
// same ids, same name tables, same parse bookkeeping (the count of
// legacy-fallback lines included), same sanitize report — whether it
// runs inline or on more workers than there are files.
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
	if wantStats.Malformed == 0 || wantStats.Binary == 0 || wantStats.Fallback == 0 ||
		wantStats.Binary+wantStats.Fallback >= wantStats.Entries {
		t.Fatalf("fixture lost its mix of garbage, binary, legacy and canonical text: %+v", wantStats)
	}
	type pair struct{ a, b uint32 }
	clientIPs, ipASes := map[pair]bool{}, map[pair]bool{}
	for _, x := range want.Transfers {
		clientIPs[pair{uint32(x.Client), x.IP}], ipASes[pair{x.IP, x.AS}] = true, true
	}
	if c := want.Census(); len(clientIPs) <= want.NumClients() || len(clientIPs) <= c.IPs || len(ipASes) <= c.IPs || len(want.Names.Countries) < 3 {
		t.Fatalf("fixture lost its players under two IPs, its shared IPs, its IPs under two ASes or its countries: %d clients, %d IPs, %d client-IP and %d IP-AS pairs, countries %q",
			want.NumClients(), c.IPs, len(clientIPs), len(ipASes), want.Names.Countries)
	}
	// The name tables are what a sequential pass over the entries meets,
	// in the order it meets them.
	var wantNames Names
	seenIP, seenCountry := map[string]bool{}, map[string]bool{}
	for _, e := range entries {
		if !seenIP[e.ClientIP] {
			seenIP[e.ClientIP] = true
			wantNames.IPs = append(wantNames.IPs, e.ClientIP)
		}
		if !seenCountry[e.Country] {
			seenCountry[e.Country] = true
			wantNames.Countries = append(wantNames.Countries, e.Country)
		}
	}
	if !reflect.DeepEqual(*want.Names, wantNames) {
		t.Fatalf("FromEntries name tables differ from first-seen order: %d IPs, countries %q; want %d, %q",
			len(want.Names.IPs), want.Names.Countries, len(wantNames.IPs), wantNames.Countries)
	}
	if wantReport.DroppedSpanning == 0 || wantReport.DroppedOutside == 0 {
		t.Fatalf("fixture lost its entries to sanitize: %v", wantReport)
	}

	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			got, st, report, err := FromLogs(paths, wmslog.TraceEpoch, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if st != wantStats {
				t.Errorf("parse stats %+v, want %+v", st, wantStats)
			}
			if report != wantReport {
				t.Errorf("sanitize report %v, want %v", report, wantReport)
			}
			if got.Horizon != want.Horizon || len(got.Transfers) != len(want.Transfers) {
				t.Fatalf("trace of %d transfers over %d s, want %d over %d s",
					len(got.Transfers), got.Horizon, len(want.Transfers), want.Horizon)
			}
			for i := range got.Transfers {
				if got.Transfers[i] != want.Transfers[i] {
					t.Fatalf("transfer %d:\n got %+v\nwant %+v", i, got.Transfers[i], want.Transfers[i])
				}
			}
			if !reflect.DeepEqual(got.Names, want.Names) {
				t.Errorf("name tables differ: %d IPs, countries %q; want %d, %q",
					len(got.Names.IPs), got.Names.Countries, len(want.Names.IPs), want.Names.Countries)
			}
		})
	}
}

// TestFromLogsReportsFirstFailingFile: with two corrupt files in the
// set the error is the one a sequential pass in name order would hit,
// on every run, however the workers interleave; and the workers are
// gone when FromLogs returns.
func TestFromLogsReportsFirstFailingFile(t *testing.T) {
	dir := t.TempDir()
	paths := writeLogFixture(t, dir)
	// Days 2 and 4 are the binary files: cut both mid-record.
	var corrupt []string
	for _, day := range []int{2, 4} {
		path := filepath.Join(dir, "wms-"+wmslog.TraceEpoch.Add(time.Duration(day)*24*time.Hour).Format("2006-01-02")+".log")
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2+1); err != nil {
			t.Fatal(err)
		}
		corrupt = append(corrupt, path)
	}
	_, _, wantErr := wmslog.ReadFiles(paths, true)
	if wantErr == nil || !strings.Contains(wantErr.Error(), corrupt[0]) {
		t.Fatalf("sequential reference error %v, want one naming %s", wantErr, corrupt[0])
	}

	setGOMAXPROCS(t, 8)
	before := runtime.NumGoroutine()
	for run := 0; run < 25; run++ {
		tr, _, _, err := FromLogs(paths, wmslog.TraceEpoch, fixtureDays*86400)
		if tr != nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("run %d: trace %v, error %v, want the sequential error %v", run, tr != nil, err, wantErr)
		}
	}
	// FromLogs joins its workers before returning; allow the runtime a
	// bounded moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines before, %d after 25 failing ingests — workers leaked", before, got)
	}
}

// TestTraceOrderMatchesReference: the trace order, ties included, is
// the permutation the reference sort.Slice over the same comparison
// produces — the order every recorded characterization was taken in.
func TestTraceOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 7, 13, 100, 5000} {
		in := make([]Transfer, n)
		for i := range in {
			in[i] = Transfer{
				Client: int32(rng.Intn(4)),
				Object: uint16(rng.Intn(2)),
				Start:  int64(i/6) + rng.Int63n(3), // nearly sorted, tie-heavy
				Bytes:  int64(i),                   // tells tied transfers apart
			}
		}
		want := slices.Clone(in)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Start != want[j].Start {
				return want[i].Start < want[j].Start
			}
			if want[i].Client != want[j].Client {
				return want[i].Client < want[j].Client
			}
			return want[i].Object < want[j].Object
		})
		tr, err := New(1000, in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tr.Transfers, want) {
			t.Errorf("n=%d: trace order differs from the sort.Slice reference", n)
		}
	}
}

// TestCollectorMatchesNewSanitize: a Collector's trace and report are
// those of New followed by Sanitize over the transfers in the order
// they were added — ties and dropped entries included — for an empty
// collector, a part-filled chunk, an exactly full one and several; and
// the collector is reusable afterwards.
func TestCollectorMatchesNewSanitize(t *testing.T) {
	const horizon = 20000
	rng := rand.New(rand.NewSource(20))
	var c Collector
	for _, n := range []int{0, 5, collectorChunk, 2*collectorChunk + 77} {
		in := make([]Transfer, n)
		for i := range in {
			in[i] = Transfer{
				Client:   int32(rng.Intn(50)),
				Object:   uint16(rng.Intn(2)),
				IP:       uint32(rng.Intn(200)),
				Start:    int64(i/4) + rng.Int63n(3) - 1, // nearly sorted, tie-heavy, a few before 0
				Duration: rng.Int63n(horizon/2) - 5,      // some negative, some past the horizon
				Bytes:    int64(i),                       // tells tied transfers apart
			}
			if i%1000 == 999 {
				in[i].Duration = horizon + 1 // spanning
			}
			c.Add(in[i])
		}
		tr, err := New(horizon, in)
		if err != nil {
			t.Fatal(err)
		}
		want, wantReport := tr.Sanitize()
		got, gotReport, err := c.Trace(horizon)
		if err != nil {
			t.Fatal(err)
		}
		if gotReport != wantReport {
			t.Errorf("n=%d: report %+v, want %+v", n, gotReport, wantReport)
		}
		if n > 5 && (wantReport.DroppedNegative == 0 || wantReport.DroppedOutside == 0 || wantReport.DroppedSpanning == 0) {
			t.Errorf("n=%d: fixture exercises too little: %s", n, wantReport)
		}
		if got.Horizon != want.Horizon || !slices.Equal(got.Transfers, want.Transfers) {
			t.Errorf("n=%d: collected trace differs from New + Sanitize (%d vs %d transfers)", n, got.NumTransfers(), want.NumTransfers())
		}
	}
	c.Add(Transfer{})
	if _, _, err := c.Trace(0); err == nil {
		t.Error("zero horizon: want error")
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
	entry := func(i int) *wmslog.Entry {
		return &wmslog.Entry{
			Timestamp: wmslog.TraceEpoch.Add(time.Duration(100+i) * time.Second), ClientIP: "1.1.1.1",
			PlayerID: "p", URIStem: "/live/feed1", Duration: 10, Status: 200, ASNumber: 1,
		}
	}
	for _, col := range []string{"country", "object"} {
		entries := make([]*wmslog.Entry, limit+1)
		for i := range entries {
			entries[i] = entry(i)
			if col == "country" {
				entries[i].Country = fmt.Sprintf("c%d", i)
			} else {
				entries[i].URIStem = fmt.Sprintf("/live/%d", i)
			}
		}
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
		dir := t.TempDir()
		var paths []string
		for k, part := range [][]*wmslog.Entry{entries[:limit/2], entries[limit/2:]} {
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
		if tr, _, _, err := FromLogs(paths, wmslog.TraceEpoch, 86400); tr != nil || !errors.Is(err, ErrBadTrace) {
			t.Errorf("%d distinct %s values across two files: trace %v, err = %v, want ErrBadTrace", limit+1, col, tr != nil, err)
		}
	}

	e := entry(0)
	e.ASNumber = 1 << 32
	if _, err := FromEntries([]*wmslog.Entry{e}, wmslog.TraceEpoch, 86400); !errors.Is(err, ErrBadTrace) {
		t.Errorf("AS number 2^32: err = %v, want ErrBadTrace", err)
	}
}
