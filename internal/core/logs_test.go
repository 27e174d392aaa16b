package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// writeGenLogs writes a scale-scaled, days-long workload from seed as
// lsmgen does — the sharded stream served into a wmslog.DailyWriter's
// text lines — and returns the daily files in day order.
func writeGenLogs(t *testing.T, dir string, scale float64, days int, seed int64) []string {
	t.Helper()
	m, err := gismo.Scaled(scale, days)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := gismo.NewStreamSeeded(m, seed, gismo.DefaultShards())
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	dw, err := wmslog.NewDailyWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulate.RunStream(ws, ws.Population(), m.Horizon, simulate.DefaultConfig(), uint64(seed), simulate.StreamSinks{Line: dw.WriteLine})
	if cerr := dw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return dw.Files()
}

// logsTrace is the trace the log files hold: every file read into
// entries (wmslog.ReadFiles), one trace built (trace.FromEntries), then
// sanitized — the sequential reference the log ingest is held to.
func logsTrace(paths []string, horizon int64) (*trace.Trace, wmslog.ParseStats, trace.SanitizeReport, error) {
	entries, st, err := wmslog.ReadFiles(paths, true)
	if err != nil {
		return nil, st, trace.SanitizeReport{}, err
	}
	raw, err := trace.FromEntries(entries, wmslog.TraceEpoch, horizon)
	if err != nil {
		return nil, st, trace.SanitizeReport{}, err
	}
	clean, report := raw.Sanitize()
	return clean, st, report, nil
}

// checkObserveLogs holds ObserveLogs over dir to the characterization
// of the trace the logs hold (logsTrace) — Observe's, and with the
// figure material Characterize's — field by field and bit by bit, the
// lines written and the error. It returns the ingest ObserveLogs
// reports.
func checkObserveLogs(t *testing.T, dir string, days int, timeout int64) trace.Ingest {
	t.Helper()
	var ing trace.Ingest
	for _, figs := range []*FigureOptions{nil, {Seed: 7}} {
		var wantOut, gotOut bytes.Buffer
		want, wantErr := func() (*Characterization, error) {
			paths, err := findLogs(dir)
			if err != nil {
				return nil, err
			}
			tr, st, report, err := logsTrace(paths, int64(days)*86400)
			if err != nil {
				return nil, err
			}
			writeIngest(&wantOut, st, len(paths), report)
			if figs == nil {
				return Observe(tr, timeout)
			}
			return Characterize(tr, timeout, nil, figs.Seed)
		}()
		got, gotIng, err := ObserveLogs(dir, days, timeout, figs, &gotOut)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("figures %v: ObserveLogs error %v, want %v", figs != nil, err, wantErr)
		}
		if gotOut.String() != wantOut.String() {
			t.Errorf("figures %v: ObserveLogs wrote %q, want %q", figs != nil, gotOut.String(), wantOut.String())
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			if g, w := dumpChar(got), dumpChar(want); g != w { // the dump tells a NaN from itself
				t.Fatalf("figures %v: ObserveLogs differs from the trace's characterization: %s", figs != nil, firstDiff(g, w))
			}
		}
		ing = gotIng
	}
	return ing
}

// TestObserveLogsMatchesObserve: over lsmgen's daily logs ObserveLogs
// streams the merge into the observer — no fallback — and gives what
// the characterization of the logs' trace gives, at any core count and
// timeout, figures on and off; it fails as that path fails, over a
// horizon of no days and over a directory with no logs; and it refuses
// a timeout the observer refuses before it reads a log.
func TestObserveLogsMatchesObserve(t *testing.T) {
	dir := t.TempDir()
	writeGenLogs(t, dir, 150, 7, 11)
	atGOMAXPROCS(t, func(t *testing.T) {
		for _, timeout := range []int64{sessions.DefaultTimeout, 60} {
			if ing := checkObserveLogs(t, dir, 7, timeout); !ing.Ordered {
				t.Errorf("timeout %d: lsmgen's logs did not stream in order", timeout)
			}
		}
	})
	checkObserveLogs(t, dir, 0, sessions.DefaultTimeout)
	checkObserveLogs(t, t.TempDir(), 7, sessions.DefaultTimeout)
	for _, figs := range []*FigureOptions{nil, {}} {
		var out bytes.Buffer
		if _, ing, err := ObserveLogs(dir, 7, 0, figs, &out); !errors.Is(err, sessions.ErrBadTimeout) || ing.Stats != (wmslog.ParseStats{}) || out.Len() != 0 {
			t.Errorf("figures %v, timeout 0: err = %v, stats %+v, wrote %q; want ErrBadTimeout and nothing read", figs != nil, err, ing.Stats, out.String())
		}
	}
}

// TestObserveLogsRefusesHorizonUpFront: 24,856 days is past 2³¹ s, and
// ObserveLogs fails on it as the ingest does, before reading a line.
func TestObserveLogsRefusesHorizonUpFront(t *testing.T) {
	dir := t.TempDir()
	writeGenLogs(t, dir, 150, 7, 11)
	var out bytes.Buffer
	if _, ing, err := ObserveLogs(dir, 24856, sessions.DefaultTimeout, nil, &out); !errors.Is(err, trace.ErrBadTrace) || ing.Stats != (wmslog.ParseStats{}) || out.Len() != 0 {
		t.Errorf("ObserveLogs over 24,856 days: err = %v, stats %+v, wrote %q; want ErrBadTrace and nothing read", err, ing.Stats, out.String())
	}
}

// TestObserveLogsFallsBack: a kept three-day transfer logged in the
// fourth daily file starts on day 0, before rows the merge has already
// handed to the observer. ObserveLogs must notice, read the logs again
// held whole (trace.SortLogs), and still give exactly the
// characterization of the logs' trace — which then holds the transfer.
func TestObserveLogsFallsBack(t *testing.T) {
	dir := t.TempDir()
	files := writeGenLogs(t, dir, 150, 7, 11)
	long := &wmslog.Entry{
		Timestamp: wmslog.TraceEpoch.Add((3*86400 + 50000) * time.Second), Duration: 3*86400 - 1000,
		ClientIP: "10.200.0.1", PlayerID: "a-long-listener", ClientOS: "Windows 98", ClientCPU: "Pentium III",
		URIStem: "/live/feed1", Bytes: 123456, AvgBandwidth: 56000, Status: 200, ASNumber: 7, Country: "BR",
	}
	f, err := os.OpenFile(files[3], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(wmslog.AppendEntry(nil, long), '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := logsTrace(files, 7*86400)
	if err != nil {
		t.Fatal(err)
	}
	if i := tr.Transfers[0]; i.Start >= 86400 {
		t.Fatalf("the trace's first transfer starts at %d: the fixture holds no day 0", i.Start)
	}
	kept := false
	for _, x := range tr.Transfers {
		kept = kept || x.Bytes == long.Bytes && x.Duration == long.Duration
	}
	if !kept {
		t.Fatal("sanitizing dropped the three-day transfer")
	}
	atGOMAXPROCS(t, func(t *testing.T) {
		if ing := checkObserveLogs(t, dir, 7, sessions.DefaultTimeout); ing.Ordered {
			t.Error("ObserveLogs streamed a file reaching back three days in order: no fallback")
		}
	})
}

// TestObserveLogsHeldRows: the most transfers the ingest holds at once
// depends on the busiest days, not on how many there are. Over lsmgen's
// logs at 7 and at 28 days it stays within ParseAhead + 2 days of rows
// of the busiest day and far below the whole log at 28 days; and being
// counted from the files, it is the same at every core count.
func TestObserveLogsHeldRows(t *testing.T) {
	for _, days := range []int{7, 28} {
		dir := t.TempDir()
		busiest, total := 0, 0
		for _, path := range writeGenLogs(t, dir, 100, days, 5) {
			_, st, err := wmslog.ReadFiles([]string{path}, true)
			if err != nil {
				t.Fatal(err)
			}
			busiest, total = max(busiest, st.Entries), total+st.Entries
		}
		held := -1
		atGOMAXPROCS(t, func(t *testing.T) {
			ing := checkObserveLogs(t, dir, days, sessions.DefaultTimeout)
			if held >= 0 && ing.Held != held {
				t.Errorf("%d days: held %d transfers, %d at another core count", days, ing.Held, held)
			}
			held = ing.Held
		})
		bound := (trace.ParseAhead + 2) * busiest
		t.Logf("%d days: held at most %d of %d transfers; busiest day %d", days, held, total, busiest)
		if held <= 0 || held > bound {
			t.Errorf("%d days: held %d transfers, want at most %d (%d days of %d)", days, held, bound, trace.ParseAhead+2, busiest)
		}
		if days == 28 && 3*held > total {
			t.Errorf("28 days: held %d of %d transfers at once", held, total)
		}
	}
}

// TestObserverSetNamesAfterWalk: SetNames counts nothing, so tables set
// after the last transfer — as ObserveLogs sets them, once every file
// is numbered — give the characterization tables set before the first
// do. (ObserveServed, whose Names sink sets them first, is held to
// Observe over Serve's trace by TestObserverMatchesReference.)
func TestObserverSetNamesAfterWalk(t *testing.T) {
	tr := logTrace(t)
	observe := func(namesFirst bool) *Characterization {
		o, err := NewObserver(tr.Horizon, sessions.DefaultTimeout, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if namesFirst {
			o.SetNames(tr.Names)
		}
		for i := range tr.Transfers {
			o.Add(&tr.Transfers[i])
		}
		if !namesFirst {
			o.SetNames(tr.Names)
		}
		char, err := o.Characterization()
		if err != nil {
			t.Fatal(err)
		}
		return char
	}
	char, err := Observe(tr, sessions.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(char.Divers.CountryShare) < 2 {
		t.Fatalf("the fixture's shares name %d countries", len(char.Divers.CountryShare))
	}
	// dumpChar asks for the on-demand series: one dump a characterization.
	want := dumpChar(char)
	for _, namesFirst := range []bool{true, false} {
		if got := dumpChar(observe(namesFirst)); got != want {
			t.Errorf("names set first %v: %s", namesFirst, firstDiff(got, want))
		}
	}
}

// TestTaggedLogsAllocateNoMorePerLine: a log whose every referer is a
// distinct wmslog.SessionRef — what lsmserve writes — costs the ingest
// no allocation per line. StreamLogs over lsmgen's daily logs and over
// a copy of them tagged line by line allocates the same count, within
// a few allocations: the ingest keeps no referer, so it makes no string
// of one.
func TestTaggedLogsAllocateNoMorePerLine(t *testing.T) {
	plain, tagged := t.TempDir(), t.TempDir()
	var paths, taggedPaths []string
	lines := 0
	for _, path := range writeGenLogs(t, plain, 400, 28, 5) {
		out, err := os.Create(filepath.Join(tagged, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		w := wmslog.NewWriter(out)
		if _, err := wmslog.ScanFile(path, false, nil, func(e *wmslog.Entry) error {
			lines++
			e.Referer = wmslog.SessionRef(int64(lines), lines%7)
			return w.Write(e)
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		paths, taggedPaths = append(paths, path), append(taggedPaths, out.Name())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	mallocs := func(paths []string) float64 {
		const runs = 4
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := trace.StreamLogs(paths, wmslog.TraceEpoch, 28*86400, func(*trace.Transfer) {}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	got, want := mallocs(taggedPaths), mallocs(paths)
	t.Logf("%d lines: %.0f allocations tagged, %.0f untagged", lines, got, want)
	const slack = 32 // goroutine and timing noise, not a per-line cost
	if got > want+slack {
		t.Errorf("StreamLogs allocates %.0f times over the tagged log, %.0f over the same log untagged: more than %d apart over %d lines",
			got, want, slack, lines)
	}
}
