package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/liveserver"
	"repro/internal/wmslog"
)

// TestShutdownFlushesTransferLog covers the interrupt path: a transfer
// completes just before shutdown, and its entry must survive in the log
// file — flushed and closed — after the loop returns.
func TestShutdownFlushesTransferLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "transfers.log")
	a, err := newApp(appConfig{addr: "127.0.0.1:0", logPath: logPath, rateBps: 110000,
		maxConns: 16, writeTimeout: 10 * time.Second, idleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	interrupt := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- a.loop(interrupt, time.Hour, io.Discard) }()

	c, err := liveserver.Dial(a.srv.Addr(), "player-test-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WatchTagged("/live/feed1", liveserver.UntaggedSession, 0, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Close()

	interrupt <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("loop returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not complete")
	}

	// The entry must be on disk: without the shutdown flush it would
	// still be sitting in the 64 KiB writer buffer.
	entries, st, err := wmslog.ReadFiles([]string{logPath}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed != 0 {
		t.Errorf("malformed lines: %d", st.Malformed)
	}
	if len(entries) != 1 {
		t.Fatalf("logged %d entries, want 1", len(entries))
	}
	if entries[0].PlayerID != "player-test-1" || entries[0].URIStem != "/live/feed1" {
		t.Errorf("unexpected entry: %+v", entries[0])
	}
	if entries[0].Bytes <= 0 {
		t.Errorf("entry bytes = %d", entries[0].Bytes)
	}

	// Shutdown is idempotent.
	if err := a.shutdown(); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestShutdownWithoutLog covers the no-log configuration.
func TestShutdownWithoutLog(t *testing.T) {
	a, err := newApp(appConfig{addr: "127.0.0.1:0", rateBps: 110000,
		maxConns: 4, writeTimeout: 10 * time.Second, idleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- a.loop(interrupt, time.Hour, io.Discard) }()
	interrupt <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("loop returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

// TestShutdownWithActiveTransfer: shutting down while a transfer is
// still streaming must not lose already-completed entries nor corrupt
// the log (the in-flight transfer itself is aborted unlogged — live
// viewers cannot be deferred).
func TestShutdownWithActiveTransfer(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "transfers.log")
	a, err := newApp(appConfig{addr: "127.0.0.1:0", logPath: logPath, rateBps: 110000,
		maxConns: 16, writeTimeout: 10 * time.Second, idleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	// One transfer completes before shutdown…
	done1, err := liveserver.Dial(a.srv.Addr(), "player-done")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done1.WatchTagged("/live/feed1", liveserver.UntaggedSession, 0, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	done1.Close()

	// …another is mid-stream when the interrupt lands.
	mid, err := liveserver.Dial(a.srv.Addr(), "player-mid")
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	watchDone := make(chan error, 1)
	go func() {
		_, err := mid.WatchTagged("/live/feed2", liveserver.UntaggedSession, 0, time.Hour)
		watchDone <- err
	}()
	time.Sleep(200 * time.Millisecond) // let the transfer start streaming

	shutDone := make(chan error, 1)
	go func() { shutDone <- a.shutdown() }()
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung on an active transfer")
	}
	<-watchDone // client observes the aborted stream

	// The completed entry is on disk, intact.
	entries, st, err := wmslog.ReadFiles([]string{logPath}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed != 0 {
		t.Fatalf("log corrupt after shutdown: %d malformed lines", st.Malformed)
	}
	found := false
	for _, e := range entries {
		if e.PlayerID == "player-done" {
			found = true
		}
	}
	if !found {
		t.Fatalf("completed transfer missing from flushed log (%d entries)", len(entries))
	}
}

// TestRemovedFlagsRejected: the removed -serve-lanes flag (GOMAXPROCS
// does its job) and the fleet's -fleet, -advertise and -beat (the
// server is always one standalone node) are flag-parsing errors, not
// silently accepted, and the remaining flags are pinned.
func TestRemovedFlagsRejected(t *testing.T) {
	parse := func(args ...string) error {
		var o options
		fs := flag.NewFlagSet("lsmserve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &o)
		return fs.Parse(args)
	}
	for _, args := range [][]string{
		{"-serve-lanes", "2"}, {"-fleet", "127.0.0.1:8600"}, {"-advertise", "127.0.0.1:8555"}, {"-beat", "500ms"},
	} {
		if err := parse(args...); err == nil {
			t.Errorf("%v: want a flag-parsing error", args)
		}
	}
	var names []string
	fs := flag.NewFlagSet("lsmserve", flag.ContinueOnError)
	registerFlags(fs, new(options))
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "idle-timeout", "log", "log-format", "max-conns", "metrics", "rate", "write-timeout"}
	if !slices.Equal(names, want) {
		t.Errorf("flags %v, want %v", names, want)
	}
}

// TestLogRefusesExistingFile: a -log path that already holds a file —
// the log of an earlier run, which a later lsmload -check reads — is
// refused with an error naming it, and the file is left as it was
// instead of being truncated.
func TestLogRefusesExistingFile(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "transfers.log")
	const earlier = "#Fields: date time\nan earlier run's entries\n"
	if err := os.WriteFile(logPath, []byte(earlier), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := newApp(appConfig{addr: "127.0.0.1:0", logPath: logPath, rateBps: 110000,
		maxConns: 4, writeTimeout: 10 * time.Second, idleTimeout: time.Minute})
	if err == nil {
		a.shutdown()
		t.Fatal("newApp over an existing -log file: want an error")
	}
	if !strings.Contains(err.Error(), logPath) {
		t.Errorf("error %q does not name %s", err, logPath)
	}
	if got, _ := os.ReadFile(logPath); string(got) != earlier {
		t.Errorf("existing log changed to %q", got)
	}
}
