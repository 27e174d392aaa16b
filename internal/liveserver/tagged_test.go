package liveserver

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWatchTaggedLogsSessionRef: a tagged transfer's (session, seq)
// must round-trip through the wire, the sink record, and the rendered
// log entry — the substrate of the replay check's event reconciling.
func TestWatchTaggedLogsSessionRef(t *testing.T) {
	var mu sync.Mutex
	var records []TransferRecord
	sunk := make(chan struct{}, 2) // one send per expected record
	cfg := DefaultServerConfig()
	cfg.FrameBytes = 128
	cfg.FrameInterval = 5 * time.Millisecond
	cfg.Sink = func(r TransferRecord) {
		mu.Lock()
		records = append(records, r)
		mu.Unlock()
		sunk <- struct{}{}
	}
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr(), "tagged-player")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WatchTagged("/live/feed1", 4242, 7, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WatchTagged("/live/feed2", UntaggedSession, 0, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// The server answers END before it emits the record, so the last
	// record can trail the client's return: wait for both.
	for i := 0; i < 2; i++ {
		select {
		case <-sunk:
		case <-time.After(5 * time.Second):
			t.Fatalf("sink saw %d of 2 records", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(records) != 2 {
		t.Fatalf("got %d records", len(records))
	}
	if records[0].Session != 4242 || records[0].Seq != 7 {
		t.Fatalf("tagged record carries %d.%d", records[0].Session, records[0].Seq)
	}
	if records[1].Session != UntaggedSession {
		t.Fatalf("untagged record carries session %d", records[1].Session)
	}

	tagged := RecordEntry(records[0])
	session, seq, ok := tagged.SessionSeq()
	if !ok || session != 4242 || seq != 7 {
		t.Fatalf("log entry tag %d.%d ok=%v", session, seq, ok)
	}
	untagged := RecordEntry(records[1])
	if _, _, ok := untagged.SessionSeq(); ok {
		t.Fatal("untagged entry grew a session tag")
	}
	if untagged.Referer != "" {
		t.Fatalf("untagged referer %q", untagged.Referer)
	}
}

// TestParseCommandTaggedStart pins the extended START grammar.
func TestParseCommandTaggedStart(t *testing.T) {
	cmd, err := parseCommand("START /live/feed1 12 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.arg != "/live/feed1" || cmd.session != 12 || cmd.seq != 3 {
		t.Fatalf("parsed %+v", cmd)
	}
	cmd, err = parseCommand("START /live/feed1\n")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.session != UntaggedSession {
		t.Fatalf("untagged START parsed session %d", cmd.session)
	}
	for _, bad := range []string{
		"START /live/feed1 12\n",
		"START /live/feed1 12 3 4\n",
		"START /live/feed1 -1 3\n",
		"START /live/feed1 x 3\n",
		"START /live/feed1 12 -3\n",
		"START\n",
	} {
		if _, err := parseCommand(bad); err == nil {
			t.Errorf("parseCommand(%q) accepted", strings.TrimSpace(bad))
		}
	}
}
