package liveserver

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

func newTestTimer(t *testing.T) *stopTimer {
	t.Helper()
	timer, err := newStopTimer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { timer.close() })
	return timer
}

// waitFor runs timer.wait on a goroutine and returns its result and
// how long it blocked, or fails once bound has passed.
func waitFor(t *testing.T, timer *stopTimer, bound time.Duration, during func()) (time.Duration, error) {
	t.Helper()
	begin := time.Now()
	done := make(chan error, 1)
	go func() { done <- timer.wait() }()
	if during != nil {
		during()
	}
	select {
	case err := <-done:
		return time.Since(begin), err
	case <-time.After(bound):
		t.Fatalf("wait still blocked after %v", bound)
		return 0, nil
	}
}

// TestStopTimerNeverEarly: a wait returns no sooner than the armed
// duration, over repeated arms of one timer.
func TestStopTimerNeverEarly(t *testing.T) {
	timer := newTestTimer(t)
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 250 * time.Microsecond, 10 * time.Millisecond} {
		begin := time.Now()
		if err := timer.arm(d); err != nil {
			t.Fatal(err)
		}
		if err := timer.wait(); err != nil {
			t.Fatalf("arm(%v): wait: %v", d, err)
		}
		if got := time.Since(begin); got < d {
			t.Errorf("arm(%v) fired after %v", d, got)
		}
	}
	// A duration already spent expires at once; it does not disarm.
	for _, d := range []time.Duration{0, -time.Second} {
		if err := timer.arm(d); err != nil {
			t.Fatal(err)
		}
		if _, err := waitFor(t, timer, 5*time.Second, nil); err != nil {
			t.Fatalf("arm(%v): wait: %v", d, err)
		}
	}
}

// TestStopTimerRearmReplaces: arming again replaces the pending expiry,
// sooner or later, and an expiry that fired but was never waited for
// does not survive a re-arm.
func TestStopTimerRearmReplaces(t *testing.T) {
	timer := newTestTimer(t)

	if err := timer.arm(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := timer.arm(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if took, err := waitFor(t, timer, 5*time.Second, nil); err != nil || took < 5*time.Millisecond {
		t.Fatalf("an hour re-armed to 5 ms: wait returned %v after %v", err, took)
	}

	for _, stale := range []bool{false, true} {
		if err := timer.arm(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if stale {
			time.Sleep(10 * time.Millisecond) // the 1 ms expiry fires, unread
		}
		begin := time.Now()
		if err := timer.arm(80 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := timer.wait(); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(begin); got < 80*time.Millisecond {
			t.Errorf("1 ms re-armed to 80 ms (expired unread: %v): wait returned after %v", stale, got)
		}
	}
}

// TestStopTimerCancel: cancel releases a wait with an error (the STOP
// goroutine then sends nothing), the cancelled expiry never arrives,
// and the timer arms again afterwards.
func TestStopTimerCancel(t *testing.T) {
	timer := newTestTimer(t)
	for round := 0; round < 3; round++ {
		if err := timer.arm(30 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		_, err := waitFor(t, timer, 5*time.Second, func() {
			time.Sleep(2 * time.Millisecond)
			timer.cancel()
		})
		if err == nil {
			t.Fatalf("round %d: a wait cancelled 2 ms into a 30 ms arm returned nil", round)
		}
	}
	// Cancelled with no wait in progress: a later wait still blocks
	// until the next arm's expiry, not the cancelled one.
	if err := timer.arm(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	timer.cancel()
	time.Sleep(10 * time.Millisecond)
	begin := time.Now()
	if err := timer.arm(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := timer.wait(); err != nil || time.Since(begin) < 40*time.Millisecond {
		t.Fatalf("after a cancel, a 40 ms arm: wait returned %v after %v", err, time.Since(begin))
	}
}

// TestStopTimerCloseReleasesWaiter: close wakes a wait on a timer armed
// far in the future.
func TestStopTimerCloseReleasesWaiter(t *testing.T) {
	timer, err := newStopTimer()
	if err != nil {
		t.Fatal(err)
	}
	if err := timer.arm(time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := waitFor(t, timer, 5*time.Second, func() {
		time.Sleep(2 * time.Millisecond)
		timer.close()
	}); err == nil {
		t.Fatal("a wait released by close returned nil")
	}
}

// TestWatchGetsEveryFrameDue: END carries every frame the pace owes by
// the STOP, so a 10 ms watch at a 2 ms interval gets at least five
// frames however late the server's ticker runs.
func TestWatchGetsEveryFrameDue(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.FrameInterval = 2 * time.Millisecond
	s := startServer(t, cfg)
	c, err := Dial(s.Addr(), "frames-due")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const watch = 10 * time.Millisecond
	short := 0
	for i := 0; i < 100; i++ {
		res, err := c.WatchTagged("/live/feed1", 1, i, watch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frames < int(watch/cfg.FrameInterval) {
			short++
			t.Logf("watch %d: %d frames in %v", i, res.Frames, res.Duration)
		}
	}
	if short > 0 {
		t.Errorf("%d of 100 watches of %v got fewer than %d frames", short, watch, watch/cfg.FrameInterval)
	}
}

// TestWatchErrorSendsNoStop: a transfer the server ends with ERR before
// the watch is up returns at once, leaves no goroutine behind, and the
// cancelled timer sends no STOP afterwards.
func TestWatchErrorSendsNoStop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const watch = 50 * time.Millisecond
	heard := make(chan string, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			heard <- err.Error()
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		r.ReadString('\n') // HELLO
		fmt.Fprint(conn, "OK HELLO\n")
		r.ReadString('\n') // START
		fmt.Fprint(conn, "OK START /live/feed1\nERR boom\n")
		conn.SetReadDeadline(time.Now().Add(3 * watch))
		line, err := r.ReadString('\n')
		if err != nil {
			line = ""
		}
		heard <- line
	}()
	c, err := Dial(ln.Addr().String(), "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := runtime.NumGoroutine()
	begin := time.Now()
	if _, err := c.WatchTagged("/live/feed1", UntaggedSession, 0, watch); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("WatchTagged: %v, want the server's ERR", err)
	}
	if took := time.Since(begin); took >= watch {
		t.Errorf("WatchTagged returned after %v, not at the ERR", took)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after WatchTagged returned, %d before", after, before)
	}
	if line := <-heard; line != "" {
		t.Errorf("after the ERR the server heard %q", line)
	}
}
