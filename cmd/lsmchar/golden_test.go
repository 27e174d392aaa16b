package main

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"crypto/md5"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wmslog"
)

// Fixture shape for the goldens and the metamorphic relations: long
// enough for every weekly fold, so all 39 series are written.
const (
	fixtureScale = 400
	fixtureDays  = 8
	fixtureSeed  = 7
)

// charRun is one lsmchar -figs run: its stdout, with the figure
// directory written as FIGS, and the bytes of each figure series by
// file name.
type charRun struct {
	stdout string
	series map[string][]byte
}

// characterizeDays runs lsmchar over dir with a horizon of days and
// -figs.
func characterizeDays(t *testing.T, dir string, days int) charRun {
	t.Helper()
	figDir := filepath.Join(t.TempDir(), "figs")
	var out bytes.Buffer
	if err := run(&out, dir, days, 1500, figDir, 1, ""); err != nil {
		t.Fatal(err)
	}
	dats, err := filepath.Glob(filepath.Join(figDir, "*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	r := charRun{stdout: strings.ReplaceAll(out.String(), figDir, "FIGS"), series: make(map[string][]byte)}
	for _, path := range dats {
		if r.series[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// sums returns the md5 of every figure series in md5sum's format, in
// name order.
func (r charRun) sums() string {
	var sums strings.Builder
	for _, name := range slices.Sorted(maps.Keys(r.series)) {
		fmt.Fprintf(&sums, "%x  %s\n", md5.Sum(r.series[name]), name)
	}
	return sums.String()
}

// characterize runs lsmchar over dir at the fixture's horizon with
// -figs and returns its stdout and its series' md5s (charRun.sums).
func characterize(t *testing.T, dir string) (stdout, series string) {
	t.Helper()
	r := characterizeDays(t, dir, fixtureDays)
	return r.stdout, r.sums()
}

// appendReachBack appends to the fourth daily file of dir a kept
// three-day transfer that starts on day 0: a file reaching back past
// rows a streamed merge would already have handed on.
func appendReachBack(t *testing.T, dir string) {
	t.Helper()
	paths, err := wmslog.FindLogs(dir)
	if err != nil || len(paths) < 4 {
		t.Fatalf("%d log files (%v): want at least 4", len(paths), err)
	}
	long := &wmslog.Entry{
		Timestamp: wmslog.TraceEpoch.Add((3*86400 + 50000) * time.Second), Duration: 3*86400 - 1000,
		ClientIP: "10.200.0.1", PlayerID: "a-long-listener", ClientOS: "Windows_98", ClientCPU: "Pentium_III",
		URIStem: "/live/feed1", Bytes: 123456, AvgBandwidth: 56000, Status: 200, ASNumber: 7, Country: "BR",
	}
	f, err := os.OpenFile(paths[3], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(wmslog.AppendEntry(nil, long), '\n')); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCharGolden pins lsmchar's stdout and the md5 of each of its 39
// figure series over two scale-400, 8-day fixtures: lsmgen-shaped daily
// logs, and the same logs with one file reaching back three days, which
// no streamed merge can take in order. Regenerate only on purpose, with
// UPDATE_GOLDEN=1 go test ./cmd/lsmchar -run TestCharGolden.
func TestCharGolden(t *testing.T) {
	for _, name := range []string{"ordered", "reachback"} {
		t.Run(name, func(t *testing.T) {
			dir := writeLogs(t, fixtureScale, fixtureDays, fixtureSeed)
			if name == "reachback" {
				appendReachBack(t, dir)
			}
			stdout, series := characterize(t, dir)
			if n := strings.Count(series, "\n"); n != 39 {
				t.Errorf("%d figure series, want 39", n)
			}
			for suffix, data := range map[string]string{"stdout": stdout, "series": series} {
				path := filepath.Join("testdata", name+"."+suffix+".golden")
				if os.Getenv("UPDATE_GOLDEN") != "" {
					if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if data != string(want) {
					t.Errorf("%s differs from the golden:\n%s", path, data)
				}
			}
		})
	}
}

// logFile is one daily log file as lines: its '#' header and its
// entries, in file order.
type logFile struct {
	name            string
	header, entries []string
}

// readLogFiles reads every daily log file under dir, in name order.
func readLogFiles(t *testing.T, dir string) []logFile {
	t.Helper()
	paths, err := wmslog.FindLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []logFile
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := logFile{name: filepath.Base(path)}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				f.header = append(f.header, line)
			} else {
				f.entries = append(f.entries, line)
			}
		}
		files = append(files, f)
	}
	return files
}

// writeLogFiles writes files into a fresh directory, header first; a
// name ending in ".gz" is written gzip-compressed.
func writeLogFiles(t *testing.T, files []logFile) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range files {
		lines := append(slices.Clone(f.header), f.entries...)
		data := []byte(strings.Join(lines, "\n") + "\n")
		if strings.HasSuffix(f.name, ".gz") {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// Entry fields the relations rewrite, by their place on a text line
// (#Fields: date time c-ip c-playerid c-os c-cpu cs-uri-stem x-duration ...).
const (
	fieldDate     = 0
	fieldTime     = 1
	fieldIP       = 2
	fieldPlayer   = 3
	fieldDuration = 7
)

// mapField rewrites field k of every entry line with f.
func mapField(files []logFile, k int, f func(string) string) []logFile {
	for i := range files {
		for j, line := range files[i].entries {
			fields := strings.Split(line, " ")
			fields[k] = f(fields[k])
			files[i].entries[j] = strings.Join(fields, " ")
		}
	}
	return files
}

// mapLines rewrites every line of every file, header lines included,
// with f.
func mapLines(files []logFile, f func(string) string) []logFile {
	for i := range files {
		for _, lines := range [][]string{files[i].header, files[i].entries} {
			for j, line := range lines {
				lines[j] = f(line)
			}
		}
	}
	return files
}

// reverseOctets maps a dotted quad to its octets in reverse order, a
// bijection on addresses.
func reverseOctets(ip string) string {
	octets := strings.Split(ip, ".")
	slices.Reverse(octets)
	return strings.Join(octets, ".")
}

// shiftDays moves every entry's timestamp, and each daily file's name
// with it, days later.
func shiftDays(t *testing.T, files []logFile, days int) []logFile {
	for i := range files {
		day, err := time.Parse("wms-2006-01-02.log", files[i].name)
		if err != nil {
			t.Fatal(err)
		}
		files[i].name = day.AddDate(0, 0, days).Format("wms-2006-01-02.log")
		for j, line := range files[i].entries {
			fields := strings.Split(line, " ")
			ts, err := time.Parse(time.DateTime, fields[fieldDate]+" "+fields[fieldTime])
			if err != nil {
				t.Fatal(err)
			}
			fields[fieldDate], fields[fieldTime], _ = strings.Cut(ts.AddDate(0, 0, days).Format(time.DateTime), " ")
			files[i].entries[j] = strings.Join(fields, " ")
		}
	}
	return files
}

// Relation (f) shifts the fixture by shiftWeeks whole weeks inside a
// horizon of shiftHorizon days: long enough that the shifted logs still
// fit (their last file holds the transfers that end at the fixture's
// last midnight), and not a whole number of weeks, so each fold
// averages some phases over one more week than others.
const (
	shiftWeeks   = 2
	shiftHorizon = fixtureDays + 7*shiftWeeks + 1
	// shiftBins is how far a 15-minute binned series moves.
	shiftBins = shiftWeeks * 7 * 96
)

// acfLine matches stdout's Figure 8 autocorrelation line.
var acfLine = regexp.MustCompile(`ACF at 1-day lag: .*`)

// checkWeekShift holds relation (f): logs shifted by whole weeks inside
// the horizon keep Table 1, every fitted law, the Figure 6 replica
// (drawn from the day fold), every marginal and both folds of each
// temporal figure, while each 15-minute binned trace series moves by
// shiftBins bins. Left out is the one output that sees the zero padding
// before and after the traffic move: Figure 8's minute-lag
// autocorrelation (fig08_acf, and stdout's 1-day lag), whose lagged
// products pair padding with traffic at other places once the traffic
// moves.
func checkWeekShift(t *testing.T, want, got charRun) {
	mask := func(s string) string { return acfLine.ReplaceAllString(s, "ACF at 1-day lag: X") }
	if mask(got.stdout) != mask(want.stdout) {
		t.Errorf("stdout changed:\n%s\nwant:\n%s", got.stdout, want.stdout)
	}
	if len(got.series) != len(want.series) {
		t.Errorf("%d figure series, want %d", len(got.series), len(want.series))
	}
	for name, w := range want.series {
		g := got.series[name]
		switch {
		case name == "fig08_acf.dat":
		case strings.HasSuffix(name, "_trace.dat"):
			wx, wy := datColumns(t, w)
			gx, gy := datColumns(t, g)
			n := len(wy)
			if !slices.Equal(gx, wx) || n <= shiftBins || !slices.Equal(gy[shiftBins:], wy[:n-shiftBins]) ||
				slices.ContainsFunc(gy[:shiftBins], isNonZero) || slices.ContainsFunc(wy[n-shiftBins:], isNonZero) {
				t.Errorf("%s: not the series shifted by %d bins", name, shiftBins)
			}
		case !bytes.Equal(g, w):
			t.Errorf("%s changed", name)
		}
	}
}

// datColumns splits a .dat file's points into their x and y columns,
// as written.
func datColumns(t *testing.T, data []byte) (xs, ys []string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		x, y, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("bad .dat line %q", line)
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

func isNonZero(y string) bool { return y != "0" }

// fileCount matches the ingest line's count of files read, which the
// re-split and merge relations change.
var fileCount = regexp.MustCompile(`entries from \d+ files`)

// userCount matches Table 1's count of distinct clients.
var userCount = regexp.MustCompile(`\d+ users`)

// TestMetamorphicRelations: transformations of the input logs that do
// not change the workload leave lsmchar's stdout and its 39 figure
// series byte-identical — a bijective relabelling of client addresses
// and player ids, a shuffle of the lines within each daily file, a
// re-split of the same lines into more files, one of them reaching
// back to the first day, a merge of each two consecutive days into one
// file (the files read are counted in the ingest line, so that count
// is masked), gzip on every file, a re-spacing of every line with tabs
// and runs of spaces, and the same logs read at GOMAXPROCS 1 and 4.
// A row with a horizon of its own is compared with the untransformed
// logs read over that horizon, and a row with a relation checks only
// the outputs the relation fixes: relation (f), a shift by whole weeks
// (checkWeekShift). Negative controls keep the relations from passing vacuously:
// doubling every transfer's duration must move the length fit, and
// merging two clients' identities must take one from the distinct
// client count.
func TestMetamorphicRelations(t *testing.T) {
	base := writeLogs(t, fixtureScale, fixtureDays, fixtureSeed)
	wants := map[int]charRun{fixtureDays: characterizeDays(t, base, fixtureDays)}
	identity := func(files []logFile) []logFile { return files }
	for _, c := range []struct {
		name      string
		transform func([]logFile) []logFile
		procs     int // GOMAXPROCS for the run; 0 leaves it as it is
		// control, for a negative control, picks the part of stdout the
		// transform must move; nil for a relation.
		control func(stdout string) string
		// days is the horizon read; 0 is the fixture's.
		days int
		// relation checks what the transform fixes; nil: every byte of
		// stdout (the count of files read masked) and of the 39 series.
		relation func(t *testing.T, want, got charRun)
	}{
		{"relabel c-ip and c-playerid", func(files []logFile) []logFile {
			files = mapField(files, fieldIP, reverseOctets)
			return mapField(files, fieldPlayer, func(id string) string { return "relabelled-" + id })
		}, 0, nil, 0, nil},
		{"shuffle lines within each file", func(files []logFile) []logFile {
			rng := rand.New(rand.NewSource(42))
			for _, f := range files {
				rng.Shuffle(len(f.entries), func(i, j int) { f.entries[i], f.entries[j] = f.entries[j], f.entries[i] })
			}
			return files
		}, 0, nil, 0, nil},
		{"re-split into more files, one reaching back", func(files []logFile) []logFile {
			var out []logFile
			for _, f := range files {
				stem := strings.TrimSuffix(f.name, ".log")
				half := len(f.entries) / 2
				out = append(out,
					logFile{stem + "-0.log", f.header, f.entries[:half]},
					logFile{stem + "-1.log", f.header, f.entries[half:]})
			}
			// The first day's leading lines move to a file read last.
			first := &out[0]
			k := max(len(first.entries)/3, 1)
			out = append(out, logFile{"wms-9999-12-31.log", first.header, first.entries[:k]})
			first.entries = first.entries[k:]
			return out
		}, 0, nil, 0, nil},
		{"merge two days per file, in order", func(files []logFile) []logFile {
			var out []logFile
			for i := 0; i < len(files); i += 2 {
				f := files[i]
				if i+1 < len(files) {
					f.entries = append(f.entries, files[i+1].entries...)
				}
				out = append(out, f)
			}
			return out
		}, 0, nil, 0, nil},
		{"gzip every file", func(files []logFile) []logFile {
			for i := range files {
				files[i].name += ".gz"
			}
			return files
		}, 0, nil, 0, nil},
		{"re-space with tabs and runs of spaces", func(files []logFile) []logFile {
			rng := rand.New(rand.NewSource(43))
			return mapLines(files, func(line string) string {
				var b strings.Builder
				for _, col := range strings.Split(line, " ") {
					if b.Len() > 0 {
						b.WriteString([]string{"\t", "  "}[rng.Intn(2)])
					}
					b.WriteString(col)
				}
				return b.String()
			})
		}, 0, nil, 0, nil},
		{"GOMAXPROCS 1", identity, 1, nil, 0, nil},
		{"GOMAXPROCS 4", identity, 4, nil, 0, nil},
		{"negative control: double every x-duration", func(files []logFile) []logFile {
			return mapField(files, fieldDuration, func(d string) string {
				n, err := strconv.ParseInt(d, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return strconv.FormatInt(2*n, 10)
			})
		}, 0, lengthFit, 0, nil},
		{"negative control: merge two clients' identities", func(files []logFile) []logFile {
			a := strings.Split(files[0].entries[0], " ")
			var b []string
			for _, line := range files[0].entries {
				if b = strings.Split(line, " "); b[fieldPlayer] != a[fieldPlayer] {
					break
				}
			}
			return mapLines(files, func(line string) string {
				fields := strings.Split(line, " ")
				if len(fields) <= fieldPlayer || fields[fieldPlayer] != b[fieldPlayer] {
					return line
				}
				fields[fieldIP], fields[fieldPlayer] = a[fieldIP], a[fieldPlayer]
				return strings.Join(fields, " ")
			})
		}, 0, userCount.FindString, 0, nil},
		{"shift every timestamp by whole weeks", func(files []logFile) []logFile {
			return shiftDays(t, files, 7*shiftWeeks)
		}, 0, nil, shiftHorizon, checkWeekShift},
	} {
		t.Run(c.name, func(t *testing.T) {
			days := cmp.Or(c.days, fixtureDays)
			want, ok := wants[days]
			if !ok {
				want = characterizeDays(t, base, days)
				wants[days] = want
			}
			dir := writeLogFiles(t, c.transform(readLogFiles(t, base)))
			if c.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			}
			got := characterizeDays(t, dir, days)
			switch {
			case c.control != nil:
				if moved := c.control(got.stdout); moved == c.control(want.stdout) {
					t.Errorf("%q did not move", moved)
				}
			case c.relation != nil:
				c.relation(t, want, got)
			default:
				gotOut := fileCount.ReplaceAllString(got.stdout, "entries from N files")
				if wantOut := fileCount.ReplaceAllString(want.stdout, "entries from N files"); gotOut != wantOut {
					t.Errorf("stdout changed:\n%s\nwant:\n%s", gotOut, wantOut)
				}
				if gotSeries, wantSeries := got.sums(), want.sums(); gotSeries != wantSeries {
					t.Errorf("figure series changed:\n%s\nwant:\n%s", gotSeries, wantSeries)
				}
			}
		})
	}
}

// lengthFit returns the stdout line that reports the transfer length
// fit.
func lengthFit(stdout string) string {
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "  lengths: ") {
			return line
		}
	}
	return ""
}
