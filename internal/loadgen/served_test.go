package loadgen

import (
	"cmp"
	"hash/fnv"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// TestReadServedRealization: a server's log split across files, in
// mixed formats and named in any order, digests as the one file that
// holds the same transfers, and a lost transfer changes the digest.
func TestReadServedRealization(t *testing.T) {
	dir := t.TempDir()
	var all []*wmslog.Entry
	var parts [3][]*wmslog.Entry
	for s := 0; s < 40; s++ {
		for q := 0; q < 3; q++ {
			e := servedEntry(workload.Event{Session: s, Seq: q, Start: int64(7 * s), Duration: 5}, s%5, 1)
			parts[len(all)*7%3] = append(parts[len(all)*7%3], e)
			all = append(all, e)
		}
	}
	var files []string
	for i, p := range parts {
		files = append(files, writeServedLog(t, filepath.Join(dir, "part"+string(rune('1'+i))+".log"), p, byte(i)))
	}
	single := writeServedLog(t, filepath.Join(dir, "single.log"), all, 0)
	lossy := writeServedLog(t, filepath.Join(dir, "lossy.log"), all[1:], 0)
	digest := func(paths ...string) string {
		t.Helper()
		s, _, err := ReadServed(paths, fuzzBegin, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.Realization()
	}
	split := digest(files...)
	if got := digest(files[2], files[0], files[1]); got != split {
		t.Fatalf("files named in another order digest %s, want %s", got, split)
	}
	if got := digest(single); got != split {
		t.Fatalf("single-file realization %s, split %s", got, split)
	}
	if digest(lossy) == split {
		t.Fatal("a lost transfer is not reflected in the realization digest")
	}
}

// TestReconcileServed pins the two end-of-transfer races: a
// recorded-lost event whose entry the server had already committed,
// and a duplicate serve from a successful redial, ending in a later second
// or in the same one. The kept serve — the one that ended first, then
// the one whose rendered line has the smaller FNV-1a hash — and the
// counts do not depend on the order the entries come in; untagged
// entries pass through untouched.
func TestReconcileServed(t *testing.T) {
	at := time.Date(2002, 3, 1, 12, 0, 0, 0, time.UTC)
	entry := func(session int64, seq int, end, duration int64) *wmslog.Entry {
		return &wmslog.Entry{
			Timestamp: at.Add(time.Duration(end) * time.Second), ClientIP: "10.0.0.1",
			PlayerID: "p", URIStem: "/u", Duration: duration, Referer: wmslog.SessionRef(session, seq),
		}
	}
	untagged := entry(0, 0, 50, 4)
	untagged.Referer = ""
	entries := []*wmslog.Entry{
		entry(1, 0, 10, 2),
		entry(2, 0, 20, 5), entry(2, 0, 21, 1), // 2.0 served again, a second later
		entry(3, 0, 30, 3),                     // committed but recorded lost
		entry(4, 0, 40, 9), entry(4, 0, 40, 2), // 4.0 served twice in one second
		untagged,
	}
	// The kept rows on the trace clock of a replay that began at at, at
	// compression 1: 2.0's first serve and the serve of 4.0 whose line
	// hashes smaller.
	lineHash := func(e *wmslog.Entry) uint64 {
		h := fnv.New64a()
		h.Write(wmslog.AppendEntry(nil, e))
		return h.Sum64()
	}
	same := trace.Transfer{Start: 31, Duration: 9}
	if lineHash(entries[5]) < lineHash(entries[4]) {
		same = trace.Transfer{Start: 38, Duration: 2}
	}
	want := []trace.Transfer{{Start: 8, Duration: 2}, {Start: 15, Duration: 5}, same, {Start: 46, Duration: 4}}
	failed := []workload.Event{{Session: 3, Seq: 0}}
	reversed := slices.Clone(entries)
	slices.Reverse(reversed)
	for _, order := range [][]*wmslog.Entry{entries, reversed} {
		served, err := newServed(at, 0, 1, failed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range order {
			served.add(e)
		}
		if served.DroppedLost != 1 || served.DroppedDup != 2 {
			t.Fatalf("dropped lost=%d dup=%d, want 1 and 2", served.DroppedLost, served.DroppedDup)
		}
		got := slices.SortedFunc(slices.Values(served.rows), func(a, b trace.Transfer) int { return cmp.Compare(a.Start, b.Start) })
		if !slices.Equal(got, want) {
			t.Fatalf("kept rows %v, want %v", got, want)
		}
	}
}
