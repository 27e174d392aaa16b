package wmslog_test

import (
	"testing"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

// TestEntryHintWithinTwentyPercent: on a generated day — one full day
// of a scale-10 run — EntryHint is at least the file's entry count and
// at most 1.2 times it, in text, gzip and binary alike: a trace build
// presizes its rows from the hints, so a hint short of the count costs
// a copy and one far over it resident memory.
func TestEntryHintWithinTwentyPercent(t *testing.T) {
	m, err := gismo.Scaled(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 2002)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(w, simulate.DefaultConfig(), 2002)
	if err != nil {
		t.Fatal(err)
	}
	write := func(binary bool) string {
		dw, err := wmslog.NewDailyWriter(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dw.Binary = binary
		for _, e := range res.Entries {
			if err := dw.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		if len(dw.Files()) < 2 {
			t.Fatalf("%d daily files, want 2", len(dw.Files()))
		}
		return dw.Files()[1] // the first full day
	}
	gz, err := wmslog.CompressFile(write(false))
	if err != nil {
		t.Fatal(err)
	}
	text := write(false)
	for _, c := range []struct{ format, path string }{{"text", text}, {"gzip", gz}, {"binary", write(true)}} {
		st, err := wmslog.ScanFile(c.path, false, nil, func(*wmslog.Entry) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if st.Entries < 1000 {
			t.Fatalf("%s: %d entries: not a full day", c.format, st.Entries)
		}
		hint := wmslog.EntryHint(c.path)
		if ratio := float64(hint) / float64(st.Entries); ratio < 1 || ratio > 1.2 {
			t.Errorf("%s: hint %d for %d entries (%.2f×), want 1.0–1.2×", c.format, hint, st.Entries, ratio)
		}
	}
}
