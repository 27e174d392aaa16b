package wmslog

import (
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fixed2Oracle is what appendFixed2 replaced: strconv's correctly
// rounded "%.2f".
func fixed2Oracle(v float64) string {
	return string(strconv.AppendFloat(nil, v, 'f', 2, 64))
}

func checkFixed2(t *testing.T, v float64) {
	t.Helper()
	if got, want := string(appendFixed2(nil, v)), fixed2Oracle(v); got != want {
		t.Fatalf("appendFixed2(%v = %#016x) = %q, strconv prints %q", v, math.Float64bits(v), got, want)
	}
}

// TestAppendFixed2EveryCentiPercent is the exhaustive table over the
// range Validate accepts: every k/100 for k ∈ [0, 10000] — and both
// float64 neighbours of each, the halfway-adjacent cases — prints as
// strconv prints it, and every exact k/100 takes the integer path.
func TestAppendFixed2EveryCentiPercent(t *testing.T) {
	for k := 0; k <= 10000; k++ {
		v := float64(k) / 100
		if got, ok := exactCenti(v); !ok || got != uint64(k) {
			t.Fatalf("exactCenti(%d/100) = %d, %v: the simulator's rounded values must take the integer path", k, got, ok)
		}
		checkFixed2(t, v)
		checkFixed2(t, math.Nextafter(v, math.Inf(1)))
		checkFixed2(t, math.Nextafter(v, math.Inf(-1)))
		// The halfway point between two printable values and its
		// neighbours: where a wrong rounding rule would show.
		h := (float64(k) + 0.5) / 100
		checkFixed2(t, h)
		checkFixed2(t, math.Nextafter(h, math.Inf(1)))
		checkFixed2(t, math.Nextafter(h, math.Inf(-1)))
	}
}

// TestAppendFixed2Fallback pins that the values outside the integer
// path reach strconv and still print its bytes: negatives, −0, NaN,
// ±Inf, values with more than two decimals, and magnitudes from where
// float64 can no longer tell adjacent centi-units apart.
func TestAppendFixed2Fallback(t *testing.T) {
	fallback := []float64{
		-1.25, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		0.004999, 1.0 / 3, 99.995, 1 << 46, (1 << 53) / 100, 1 << 60, math.MaxFloat64,
		math.SmallestNonzeroFloat64,
	}
	for _, v := range fallback {
		if _, ok := exactCenti(v); ok {
			t.Errorf("exactCenti(%v) took the integer path", v)
		}
		checkFixed2(t, v)
	}
	// Just under the limit the integer path is still exact where it
	// applies.
	for _, v := range []float64{1<<46 - 0.25, 1<<46 - 0.5, 70368744177663.99, 12345678901.23} {
		checkFixed2(t, v)
	}
}

// TestAppendFixed2AcrossMagnitudes sweeps k/100 (and neighbours) for k
// log-uniform up to 2^56, straddling fixed2Limit: the integer path's
// claim has to hold right up to the bound and the fallback beyond it.
func TestAppendFixed2AcrossMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewPCG(2002, 16))
	for i := 0; i < 200_000; i++ {
		k := rng.Uint64() >> (8 + rng.IntN(56))
		v := float64(k) / 100
		checkFixed2(t, v)
		checkFixed2(t, math.Nextafter(v, math.Inf(1)))
		checkFixed2(t, math.Nextafter(v, 0))
	}
}

// FuzzAppendFixed2: any float64 bit pattern prints exactly as
// strconv.AppendFloat(…, 'f', 2, 64) prints it, and so do the values a
// centi-unit away from it by one ulp.
func FuzzAppendFixed2(f *testing.F) {
	for _, v := range []float64{
		0, 4.37, 100, 0.005, 0.015, 0.025, 1.005, 2.675, 99.995,
		math.Copysign(0, -1), -4.37, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 46, (1 << 53) / 100, 1 << 53, 1e300, math.SmallestNonzeroFloat64,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		checkFixed2(t, v)
		// The nearest printable value and its float64 neighbours: the
		// k/100 ± 1 ulp cases around wherever the fuzzer landed.
		if k := math.Round(v * 100); !math.IsNaN(k) && !math.IsInf(k, 0) {
			c := k / 100
			checkFixed2(t, c)
			checkFixed2(t, math.Nextafter(c, math.Inf(1)))
			checkFixed2(t, math.Nextafter(c, math.Inf(-1)))
		}
		// centiOf shares the integer path; the binary form must agree
		// with the text form on every value the writer can carry (the
		// sign of −0 aside: the uvarint has nowhere to put it).
		if v >= 0 && v <= 100 && !math.Signbit(v) {
			want := fixed2Oracle(v)
			if got := centiOf(v); strconv.FormatInt(got/100, 10)+"."+string(append2(nil, int(got%100))) != want {
				t.Fatalf("centiOf(%v) = %d, text form prints %q", v, got, want)
			}
		}
	})
}

// TestAppendEntryTimestampPaths drives both timestamp decoders against
// the legacy Format-based oracle: the UTC fast path (including stamps
// before 1970, where the unix second is negative, and years outside
// the four-digit range) and the generic path any other location takes.
func TestAppendEntryTimestampPaths(t *testing.T) {
	east := time.FixedZone("east", 5*3600+30*60)
	west := time.FixedZone("west", -(3*3600 + 7))
	stamps := map[string]time.Time{
		"utc":                  time.Date(2002, 1, 6, 13, 4, 59, 0, time.UTC),
		"utc midnight":         time.Date(2002, 1, 7, 0, 0, 0, 0, time.UTC),
		"utc last second":      time.Date(2002, 1, 6, 23, 59, 59, 0, time.UTC),
		"pre-1970":             time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		"pre-1970 mid-day":     time.Date(1931, 3, 9, 7, 8, 9, 0, time.UTC),
		"unix zero":            time.Unix(0, 0).UTC(),
		"year 0042":            time.Date(42, 7, 9, 3, 4, 5, 0, time.UTC),
		"year 12345":           time.Date(12345, 7, 9, 3, 4, 5, 0, time.UTC),
		"east of UTC":          time.Date(2002, 1, 6, 2, 4, 5, 0, east),
		"west of UTC":          time.Date(2002, 1, 6, 22, 4, 5, 0, west),
		"non-UTC pre-1970":     time.Date(1969, 12, 31, 20, 0, 1, 0, west),
		"UTC instant in east":  time.Date(2002, 1, 6, 23, 30, 0, 0, time.UTC).In(east),
		"sub-second truncated": time.Date(2002, 1, 6, 13, 4, 59, 999_999_999, time.UTC),
		"fixed zone named UTC": time.Date(2002, 1, 6, 13, 4, 59, 0, time.FixedZone("UTC", 0)),
	}
	for name, ts := range stamps {
		e := &Entry{Timestamp: ts, ClientIP: "10.0.0.1", PlayerID: "p", URIStem: "/live/feed1", ServerCPU: 4.37}
		if got, want := string(AppendEntry(nil, e)), legacyLine(e); got != want {
			t.Errorf("%s: encoders disagree\nappend: %q\nlegacy: %q", name, got, want)
		}
	}
	// Every second of a day, both sides of the epoch.
	for _, day := range []time.Time{TraceEpoch, time.Date(1960, 2, 29, 0, 0, 0, 0, time.UTC)} {
		for s := 0; s < 86400; s += 7 {
			ts := day.Add(time.Duration(s) * time.Second)
			want := ts.Format("2006-01-02 15:04:05")
			if got := string(appendTimestamp(nil, ts)); got != want {
				t.Fatalf("appendTimestamp(%v) = %q, want %q", ts, got, want)
			}
		}
	}
}

// dailyModes runs a DailyWriter test in both on-disk formats.
func dailyModes(t *testing.T, fn func(t *testing.T, dw *DailyWriter)) {
	for _, binary := range []bool{false, true} {
		name := "text"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			dw, err := NewDailyWriter(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			dw.Binary = binary
			fn(t, dw)
		})
	}
}

// TestDailyWriterRejectsEarlierDay: an entry dated before the open
// file's day used to re-create — truncate — the earlier day's file and
// carry on. It must fail with an ErrFormat ordering error that names
// both dates, write nothing, and leave the writer usable.
func TestDailyWriterRejectsEarlierDay(t *testing.T) {
	dailyModes(t, func(t *testing.T, dw *DailyWriter) {
		day1 := TraceEpoch.Add(10 * time.Hour)
		day2 := TraceEpoch.Add(34 * time.Hour)
		for _, ts := range []time.Time{day1, day1.Add(time.Hour), day2} {
			if err := dw.Write(sampleEntry(ts)); err != nil {
				t.Fatal(err)
			}
		}
		err := dw.Write(sampleEntry(day1.Add(2 * time.Hour)))
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("backwards day: err = %v, want ErrFormat", err)
		}
		for _, date := range []string{"2002-01-06", "2002-01-07"} {
			if !strings.Contains(err.Error(), date) {
				t.Errorf("error %q does not name %s", err, date)
			}
		}
		// The last second of the earlier day is still the earlier day.
		if err := dw.Write(sampleEntry(TraceEpoch.Add(24*time.Hour - time.Second))); !errors.Is(err, ErrFormat) {
			t.Fatalf("23:59:59 of the earlier day: err = %v, want ErrFormat", err)
		}
		// The writer carries on in the open day.
		if err := dw.Write(sampleEntry(day2.Add(time.Minute))); err != nil {
			t.Fatal(err)
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		if got := dw.Entries(); got != 4 {
			t.Errorf("Entries = %d, want 4 (rejected entries must not count)", got)
		}
		files := dw.Files()
		if len(files) != 2 {
			t.Fatalf("files = %v, want the two days", files)
		}
		// The first day's file still holds its two entries.
		perDay := []int{2, 2}
		for i, f := range files {
			got, _, err := ReadFiles([]string{f}, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != perDay[i] {
				t.Errorf("%s holds %d entries, want %d", filepath.Base(f), len(got), perDay[i])
			}
		}
	})
}

// TestDailyWriterWindowEdges: equal timestamps, out-of-order stamps
// within the open day, and forward rotation exactly at midnight behave
// as before the day-window compare.
func TestDailyWriterWindowEdges(t *testing.T) {
	dailyModes(t, func(t *testing.T, dw *DailyWriter) {
		noon := TraceEpoch.Add(12 * time.Hour)
		stamps := []time.Time{
			noon, noon, // equal timestamps
			noon.Add(-time.Hour), // backwards within the day: unchecked, as ever
			TraceEpoch,           // the day's first second
			TraceEpoch.Add(24*time.Hour - time.Second), // its last
			TraceEpoch.Add(24 * time.Hour),             // midnight: next file
			TraceEpoch.Add(24 * time.Hour),             // equal again, across the rotation
			TraceEpoch.Add(5 * 24 * time.Hour),         // skipped days
		}
		for _, ts := range stamps {
			if err := dw.Write(sampleEntry(ts)); err != nil {
				t.Fatalf("write %v: %v", ts, err)
			}
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range dw.Files() {
			names = append(names, filepath.Base(f))
		}
		want := "wms-2002-01-06.log wms-2002-01-07.log wms-2002-01-11.log"
		if got := strings.Join(names, " "); got != want {
			t.Errorf("files = %s, want %s", got, want)
		}
		perDay := []int{5, 2, 1}
		for i, f := range dw.Files() {
			got, _, err := ReadFiles([]string{f}, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != perDay[i] {
				t.Errorf("%s holds %d entries, want %d", filepath.Base(f), len(got), perDay[i])
			}
		}
	})
}

// TestDailyWriterOtherLocations exercises the generic path: the file a
// stamp lands in is its calendar date in its own location, whatever
// location the cached window was anchored in.
func TestDailyWriterOtherLocations(t *testing.T) {
	east := time.FixedZone("east", 5*3600)
	dw, err := NewDailyWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// 22:00 UTC on the 6th is 03:00 on the 7th five hours east.
	utcEvening := time.Date(2002, 1, 6, 22, 0, 0, 0, time.UTC)
	steps := []struct {
		ts      time.Time
		wantErr bool
	}{
		{utcEvening, false},                              // opens 01-06
		{utcEvening.In(east), false},                     // same instant, dated 01-07: rotates
		{utcEvening.In(east).Add(time.Hour), false},      // inside the east window
		{utcEvening.Add(time.Hour), true},                // UTC stamp dated 01-06 again: backwards
		{utcEvening.Add(3 * time.Hour), false},           // UTC stamp dated 01-07: same file, window re-anchored
		{utcEvening.Add(4 * time.Hour), false},           // inside the UTC window
		{utcEvening.Add(20 * time.Hour).In(east), false}, // 01-07 23:00 east: same file
		{utcEvening.Add(27 * time.Hour), false},          // 01-08 01:00 UTC: rotates
	}
	for i, s := range steps {
		err := dw.Write(sampleEntry(s.ts))
		if (err != nil) != s.wantErr {
			t.Fatalf("step %d (%v): err = %v, want error %v", i, s.ts, err, s.wantErr)
		}
		if err != nil && !errors.Is(err, ErrFormat) {
			t.Fatalf("step %d: err = %v, want ErrFormat", i, err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range dw.Files() {
		names = append(names, filepath.Base(f))
		if _, err := os.Stat(f); err != nil {
			t.Error(err)
		}
	}
	want := "wms-2002-01-06.log wms-2002-01-07.log wms-2002-01-08.log"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("files = %s, want %s", got, want)
	}
	if dw.Entries() != 7 {
		t.Errorf("Entries = %d, want 7", dw.Entries())
	}
}
