package trace

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/wmslog"
)

// fuzzHorizon is three days: a fuzzed log stamped later than that, or
// reaching back before the epoch, is left to Sanitize.
const fuzzHorizon = 3 * 86400

// writeFuzzLogs cuts data at line boundaries into 1–4 daily files, as
// shape says: text, except that shape can make the second file binary
// (its text's accepted entries re-encoded; truncated mid-record too, if
// shape says so) and the third gzip. It returns the paths in name order.
func writeFuzzLogs(t *testing.T, dir string, data []byte, shape uint8) []string {
	t.Helper()
	lines := bytes.SplitAfter(data, []byte("\n"))
	n := 1 + int(shape%4)
	var paths []string
	for k := 0; k < n; k++ {
		part := bytes.Join(lines[k*len(lines)/n:(k+1)*len(lines)/n], nil)
		path := filepath.Join(dir, fmt.Sprintf("wms-2002-01-%02d.log", 6+k))
		switch {
		case k == 1 && shape&4 != 0:
			entries, _, _ := wmslog.ReadAll(bytes.NewReader(part), true)
			var bin bytes.Buffer
			w := wmslog.NewBinaryWriter(&bin)
			for _, e := range entries {
				if err := w.Write(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			part = bin.Bytes()
			if shape&16 != 0 && len(part) > 8 {
				part = part[:len(part)-3] // cut inside the last record
			}
		case k == 2 && shape&8 != 0:
			var gz bytes.Buffer
			zw := gzip.NewWriter(&gz)
			zw.Write(part)
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			part, path = gz.Bytes(), path+".gz"
		}
		if err := os.WriteFile(path, part, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// fuzzSeedLog is a text log with what an ingest has to get right: a
// player that moves to a second IP and back, an IP two players share, a
// second country and object, transfers that tie on (Start, Client,
// Object) and differ elsewhere, a transfer spanning the horizon, one
// reaching back before the epoch, a re-spaced line and one nothing
// accepts.
func fuzzSeedLog() []byte {
	var b []byte
	add := func(sec int64, ip, player, uri string, dur, bytes int64, cpu float64, country string) {
		e := &wmslog.Entry{
			Timestamp: wmslog.TraceEpoch.Add(time.Duration(sec) * time.Second), ClientIP: ip, PlayerID: player,
			URIStem: uri, Duration: dur, Bytes: bytes, AvgBandwidth: 56000, ServerCPU: cpu,
			Status: 200, ASNumber: 7, Country: country,
		}
		b = append(wmslog.AppendEntry(b, e), '\n')
	}
	add(100, "10.0.0.1", "p1", "/live/feed1", 50, 1000, 1.5, "BR")
	add(100, "10.0.0.1", "p1", "/live/feed1", 50, 999, 1.5, "BR")   // a tie on (Start, Client, Object)
	add(130, "10.0.0.2", "p1", "/live/feed1", 80, 2000, 0.25, "BR") // moved, ties by start with the two above
	add(140, "10.0.0.2", "p2", "/live/feed2", 20, 3000, 0, "US")    // a shared IP
	b = append(b, "garbage line\n2002-01-06  00:03:00 10.0.0.1\tp1 - - /live/feed1 10 1 1 0 1.00 - 200 7 BR\n"...)
	add(90000, "10.0.0.1", "p1", "/live/feed1", 60, 500, 3, "BR") // back at the first IP
	add(90000, "10.0.0.3", "p3", "/live/feed1", 60, 500, 3, "PT")
	add(90030, "10.0.0.3", "p3", "/live/feed1", 90, 500, 3, "PT")
	add(100, "10.0.0.4", "p4", "/live/feed2", 400, 1, 0, "BR")              // starts before the epoch
	add(180000, "10.0.0.4", "p4", "/live/feed2", fuzzHorizon+1, 1, 0, "BR") // spans the horizon
	add(200000, "10.0.0.2", "p2", "/live/feed1", 10, 10, 99.99, "US")
	return b
}

// ObserveLogsCheck holds core.ObserveLogs over the daily logs in dir,
// days long, to core.Observe of want — the trace they hold — and, with
// the figure material, to core.Characterize of it; or to wantErr, the
// error reading them gives. core imports this package, so
// only an external test package can make the call: observe_test.go
// sets it.
var ObserveLogsCheck func(t *testing.T, dir string, days int, want *Trace, wantErr error)

// FuzzFromLogsMatchesFromEntries: whatever the bytes and however they
// are cut into files — text, binary, gzip, truncated, overlapping
// arbitrarily — the parallel ingest held whole (SortLogs) yields what
// reading every file sequentially and building the trace from the
// materialized entries does: the same rows in the same order, the same
// country table, parse bookkeeping and sanitize report, and the same
// first error, which names its file — at GOMAXPROCS 1 and 4. StreamLogs hands on only rows
// in the trace order, and all of the trace's when it reports them
// ordered; and core.ObserveLogs observes what core.Observe and
// core.Characterize do over the trace (ObserveLogsCheck).
func FuzzFromLogsMatchesFromEntries(f *testing.F) {
	seed := fuzzSeedLog()
	for _, shape := range []uint8{0, 1, 3, 3 | 4, 3 | 4 | 8, 3 | 4 | 16, 2 | 8} {
		f.Add(seed, shape)
	}
	f.Add([]byte("2002-01-06 00:01:30 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - 200 1 BR"), uint8(0))
	f.Add([]byte{}, uint8(3))
	// The log twice over: the third file reaches back past rows the
	// merge has handed on, so the stream stops and the trace is sorted.
	f.Add(append(slices.Clip(seed), seed...), uint8(3))
	f.Add(append(slices.Clip(seed), seed...), uint8(3|4|8))

	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		dir := t.TempDir()
		paths := writeFuzzLogs(t, dir, data, shape)
		entries, wantSt, wantErr := wmslog.ReadFiles(paths, true)
		var want *Trace
		var wantReport SanitizeReport
		if wantErr == nil {
			var raw *Trace
			if raw, wantErr = FromEntries(entries, wmslog.TraceEpoch, fuzzHorizon); wantErr == nil {
				want, wantReport = raw.Sanitize()
			}
		}
		for _, procs := range []int{1, 4} {
			setGOMAXPROCS(t, procs)
			got, held, err := sortLogs(paths, fuzzHorizon)
			if errText(err) != errText(wantErr) {
				t.Fatalf("GOMAXPROCS=%d: error %v, want %v", procs, err, wantErr)
			}
			if held.Stats != wantSt {
				t.Fatalf("GOMAXPROCS=%d: parse stats %+v, want %+v", procs, held.Stats, wantSt)
			}
			if wantErr != nil {
				if got != nil {
					t.Fatalf("GOMAXPROCS=%d: rows beside the error", procs)
				}
				continue
			}
			if held.Report != wantReport {
				t.Fatalf("GOMAXPROCS=%d: sanitize report %v, want %v", procs, held.Report, wantReport)
			}
			if !slices.Equal(got, want.Transfers) {
				t.Fatalf("GOMAXPROCS=%d: rows differ\n got %+v\nwant %+v", procs, got, want.Transfers)
			}
			if !reflect.DeepEqual(held.Names, want.Names) {
				t.Fatalf("GOMAXPROCS=%d: names %+v, want %+v", procs, held.Names, want.Names)
			}
			var rows []Transfer
			ing, err := StreamLogs(paths, wmslog.TraceEpoch, fuzzHorizon, func(x *Transfer) { rows = append(rows, *x) })
			switch {
			case err != nil:
				t.Fatalf("GOMAXPROCS=%d: StreamLogs: %v", procs, err)
			case ing.Ordered && (!slices.Equal(rows, want.Transfers) || ing.Stats != wantSt || ing.Report != wantReport):
				t.Fatalf("GOMAXPROCS=%d: StreamLogs handed on %d rows (%v), want the trace's %d (%v)", procs, len(rows), ing.Report, len(want.Transfers), wantReport)
			}
			for i := 1; i < len(rows); i++ {
				if before(&rows[i], &rows[i-1]) {
					t.Fatalf("GOMAXPROCS=%d: StreamLogs handed on row %d out of the trace order", procs, i)
				}
			}
		}
		for _, procs := range []int{1, 4} {
			setGOMAXPROCS(t, procs)
			ObserveLogsCheck(t, dir, fuzzHorizon/86400, want, wantErr)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fuzzRows decodes data, six bytes a row, into rows that tie heavily:
// eight starts, four clients, two objects, three values of a few other
// fields, and CPU readings among ±0, two NaNs and ±Inf. With wide, a
// row may start at an extreme of int64, so that the starts span more
// than a sort key can hold beside the index.
func fuzzRows(data []byte, wide bool) []Transfer {
	cpus := [8]float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) + 1), 1, 0.5, math.Inf(1), math.Inf(-1)}
	extremes := [4]int64{math.MinInt64, math.MaxInt64, -1, 1 << 62}
	var rows []Transfer
	for ; len(data) >= 6; data = data[6:] {
		t := Transfer{
			Start:     int64(data[0] & 7),
			Client:    int32(data[1] & 3),
			Object:    uint16(data[1] >> 2 & 1),
			Duration:  int64(data[2] % 3),
			ServerCPU: cpus[data[3]&7],
			Bytes:     int64(data[4] % 3),
			IP:        uint32(data[5] % 3),
		}
		if wide && data[0]&0x80 != 0 {
			t.Start = extremes[data[0]>>3&3]
		}
		rows = append(rows, t)
	}
	return rows
}

// sameRows reports whether two row slices are equal bit for bit — a NaN
// reading equal to itself, −0 not to +0.
func sameRows(a, b []Transfer) bool {
	return slices.EqualFunc(a, b, func(x, y Transfer) bool {
		bx, by := math.Float64bits(x.ServerCPU), math.Float64bits(y.ServerCPU)
		x.ServerCPU, y.ServerCPU = 0, 0
		return x == y && bx == by
	})
}

// FuzzSortTraceOrderMatchesSort: sortByKeys, and sortTraceOrder over
// the same rows and over them already sorted by start, give what
// sort.Sort(byStart) gives, bit for bit — over rows with many equal
// starts and ties broken only by the CPU reading's bits, and over
// starts too far apart for the keys (the fallback).
func FuzzSortTraceOrderMatchesSort(f *testing.F) {
	f.Add([]byte("\x03\x01\x00\x02\x00\x00\x03\x01\x00\x03\x00\x00\x01\x00\x00\x00\x00\x00"), false)
	f.Add([]byte("\x80\x00\x00\x00\x00\x00\x88\x00\x00\x00\x00\x00\x02\x00\x00\x01\x00\x00"), true)
	f.Add([]byte("\x07\x02\x01\x02\x01\x02\x07\x02\x01\x03\x01\x02\x07\x02\x01\x00\x01\x02\x07\x02\x01\x01\x01\x02"), false)
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		rows := fuzzRows(data, wide)
		want := slices.Clone(rows)
		sort.Sort(byStart(want))
		got := slices.Clone(rows)
		sortByKeys(got)
		if !sameRows(got, want) {
			t.Fatalf("sortByKeys(%v) = %v, sort.Sort gives %v", rows, got, want)
		}
		got = slices.Clone(rows)
		sortTraceOrder(got)
		if !sameRows(got, want) {
			t.Fatalf("sortTraceOrder(%v) = %v, sort.Sort gives %v", rows, got, want)
		}
		got = slices.Clone(rows)
		slices.SortStableFunc(got, func(x, y Transfer) int { return cmp.Compare(x.Start, y.Start) })
		sortTraceOrder(got)
		if !sameRows(got, want) {
			t.Fatalf("sortTraceOrder of start-ordered %v = %v, sort.Sort gives %v", rows, got, want)
		}
	})
}
