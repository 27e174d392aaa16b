package wmslog

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"
)

func TestSessionRefRoundTrip(t *testing.T) {
	cases := []struct {
		session int64
		seq     int
	}{{0, 0}, {1, 2}, {123456789, 42}, {1 << 40, 999}}
	for _, c := range cases {
		ref := SessionRef(c.session, c.seq)
		s, q, ok := ParseSessionRef(ref)
		if !ok || s != c.session || q != c.seq {
			t.Errorf("round trip %d.%d via %q -> %d %d %v", c.session, c.seq, ref, s, q, ok)
		}
	}
	for _, bad := range []string{"", "-", "http://example.com", "event-", "event-1", "event-x.1", "event-1.x", "event--1.0", "event-1.-2"} {
		if _, _, ok := ParseSessionRef(bad); ok {
			t.Errorf("ParseSessionRef(%q) accepted", bad)
		}
	}
}

func TestSessionRefSurvivesLogRoundTrip(t *testing.T) {
	e := testEntryAt(time.Date(2002, 1, 7, 3, 4, 5, 0, time.UTC), 7, 3)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(e); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := ReadAll(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("got %d entries", len(entries))
	}
	s, q, ok := entries[0].SessionSeq()
	if !ok || s != 7 || q != 3 {
		t.Fatalf("tag did not survive: %d %d %v", s, q, ok)
	}
}

// testEntryAt builds a valid tagged entry.
func testEntryAt(ts time.Time, session int64, seq int) *Entry {
	return &Entry{
		Timestamp:    ts,
		ClientIP:     "127.0.0.1",
		PlayerID:     "player-1",
		URIStem:      "/live/feed1",
		Duration:     10,
		Bytes:        1000,
		AvgBandwidth: 800,
		Referer:      SessionRef(session, seq),
		Status:       200,
		ASNumber:     1,
		Country:      "BR",
	}
}

// realizationFixture is 40 sessions of three tagged transfers each
// over five players, and two untagged transfers.
func realizationFixture() []*Entry {
	epoch := time.Date(2002, 1, 7, 0, 0, 0, 0, time.UTC)
	var all []*Entry
	for s := int64(0); s < 40; s++ {
		for q := 0; q < 3; q++ {
			e := testEntryAt(epoch.Add(time.Duration(s)*7*time.Second), s, q)
			e.PlayerID = "player-" + string(rune('a'+s%5))
			all = append(all, e)
		}
	}
	for _, player := range []string{"player-z", "player-a"} {
		e := testEntryAt(epoch, 0, 0)
		e.PlayerID, e.Referer = player, ""
		all = append(all, e)
	}
	return all
}

// TestRealizationDigestPinned: the digest of the fixture is the value
// the realization digest has always had for it, whatever order the
// entries are added in.
func TestRealizationDigestPinned(t *testing.T) {
	const want = "55b6fc0eb9e49852f8aaf6d7b467be7a"
	all := realizationFixture()
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 3; trial++ {
		var r Realization
		for _, e := range all {
			r.Add(e)
		}
		if got := r.Digest(); got != want {
			t.Fatalf("trial %d: digest %s, want %s", trial, got, want)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
}
