package liveserver

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wmslog"
)

// readAll reads until deadline or EOF and returns everything received.
func readAvailable(t *testing.T, conn net.Conn, wait time.Duration) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(wait))
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return string(out)
		}
	}
}

// TestMalformedHelloGetsERR: a HELLO without one player ID the log can
// hold — none, two, or one holding a \t, \r or \v the log's columns
// split at — and any other garbage get ERR; the server then still
// serves a real client, whose UTF-8 player ID reaches the log and reads
// back from it.
func TestMalformedHelloGetsERR(t *testing.T) {
	cfg := fastConfig()
	records := make(chan TransferRecord, 1)
	cfg.Sink = func(r TransferRecord) { records <- r }
	s := startServer(t, cfg)
	for _, line := range []string{"HELLO\n", "HELLO two words\n", "HELLO p\tx\n", "HELLO p\rx\n", "HELLO p\vx\n", "BOGUS x\n", "\n"} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		got := readAvailable(t, conn, 2*time.Second)
		if !strings.HasPrefix(got, "ERR ") {
			t.Errorf("line %q: server said %q, want ERR with a reason", line, got)
		}
		conn.Close()
	}
	// The server survives garbage and still serves real clients.
	const player = "jogador-São\u00a0Paulo"
	c, err := Dial(s.Addr(), player)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WatchTagged("/live/feed1", UntaggedSession, 0, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var r TransferRecord
	select {
	case r = <-records:
	case <-time.After(5 * time.Second):
		t.Fatal("no transfer record")
	}
	var log bytes.Buffer
	w := wmslog.NewWriter(&log)
	if err := w.Write(RecordEntry(r)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := wmslog.ReadAll(&log, false)
	if err != nil || len(entries) != 1 || entries[0].PlayerID != player {
		t.Fatalf("the log reads back %v, err %v; want one entry of player %q", entries, err, player)
	}
}

func TestOversizedControlLineRejected(t *testing.T) {
	s := startServer(t, fastConfig())
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	long := "HELLO " + strings.Repeat("x", MaxLineBytes) + "\n"
	if _, err := conn.Write([]byte(long)); err != nil {
		t.Fatal(err)
	}
	got := readAvailable(t, conn, 2*time.Second)
	if got != "" && !strings.HasPrefix(got, "ERR ") {
		t.Errorf("server said %q, want ERR or close", got)
	}
}

// TestUnterminatedLineBounded: a client inside a transfer that sends a
// control line with no newline, 64 MB of it, gets ERR and the close
// once the handler's read buffer is full; the server holds no more of
// the line than that buffer (ReadString grew by the 64 MB).
func TestUnterminatedLineBounded(t *testing.T) {
	s := startServer(t, fastConfig())
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	for _, exchange := range [][2]string{{"HELLO p1\n", "OK HELLO\n"}, {"START /live/feed1\n", "OK START /live/feed1\n"}} {
		if _, err := conn.Write([]byte(exchange[0])); err != nil {
			t.Fatal(err)
		}
		if got, err := r.ReadString('\n'); got != exchange[1] {
			t.Fatalf("sent %q, got %q (%v)", exchange[0], got, err)
		}
	}

	chunk := bytes.Repeat([]byte("x"), 64<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	wrote := make(chan int64, 1)
	go func() {
		var n int64
		for n < 64<<20 {
			k, err := conn.Write(chunk)
			n += int64(k)
			if err != nil {
				break // the server closed
			}
		}
		wrote <- n
	}()
	var reply string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v; want ERR", reply, err)
		}
		if n, err := parseDataHeader(line); err == nil {
			if _, err := r.Discard(n); err != nil {
				t.Fatal(err)
			}
			continue
		}
		reply = line
		break
	}
	if want := fmt.Sprintf("ERR line exceeds %d bytes\n", MaxLineBytes); reply != want {
		t.Fatalf("server said %q, want %q", reply, want)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("the server kept the connection open after its ERR")
	}
	n := <-wrote
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Errorf("the process allocated %d B while the client sent %d B of one line, want under 1 MB", grown, n)
	}
}

func TestMidStreamDisconnectReleasesTransfer(t *testing.T) {
	cfg := fastConfig()
	s := startServer(t, cfg)
	c, err := Dial(s.Addr(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	// START then slam the connection mid-transfer.
	if _, err := c.conn.Write([]byte("START /live/feed1\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let a few frames flow
	c.conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.ActiveTransfers() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.ActiveTransfers(); got != 0 {
		t.Fatalf("active transfers = %d after disconnect", got)
	}
	if got := s.ServedTransfers(); got != 0 {
		t.Errorf("aborted transfer was counted as served (%d)", got)
	}
}

func TestSlowReaderDisconnectedByWriteDeadline(t *testing.T) {
	cfg := fastConfig()
	cfg.FrameBytes = MaxFrameBytes // fill socket buffers fast
	cfg.FrameInterval = time.Millisecond
	cfg.WriteTimeout = 200 * time.Millisecond
	s := startServer(t, cfg)

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("HELLO slow\nSTART /live/feed1\n")); err != nil {
		t.Fatal(err)
	}
	// Read nothing: the server's sends eventually fill the kernel
	// buffers and block, and the write deadline must cut the connection
	// loose instead of pinning the handler.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		tracked := len(s.conns)
		s.mu.Unlock()
		if s.ActiveTransfers() == 0 && tracked == 0 {
			if s.ServedTransfers() != 0 {
				t.Fatal("aborted transfer counted as served")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("slow reader still being served after 10s (active=%d)", s.ActiveTransfers())
}

func TestIdleConnectionTimedOut(t *testing.T) {
	cfg := fastConfig()
	cfg.IdleTimeout = 100 * time.Millisecond
	s := startServer(t, cfg)

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must drop the half-open connection and
	// free its slot.
	start := time.Now()
	got := readAvailable(t, conn, 5*time.Second)
	if got != "" {
		t.Errorf("idle connection received %q", got)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle connection held for %v, want ~100ms close", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("idle connection still tracked")
}

func TestIdleTimeoutDoesNotCutActiveTransfer(t *testing.T) {
	cfg := fastConfig()
	cfg.IdleTimeout = 80 * time.Millisecond
	s := startServer(t, cfg)
	c, err := Dial(s.Addr(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Watch for far longer than the idle timeout: the client is silent the
	// whole time, which is legitimate mid-transfer.
	res, err := c.WatchTagged("/live/feed1", UntaggedSession, 0, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("transfer cut by idle timeout: %v", err)
	}
	if res.Frames == 0 {
		t.Error("no frames received")
	}
	if res.StartLatency <= 0 {
		t.Error("start latency not measured")
	}
}

func TestBusyRefusalIsExplicitAndFast(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxConns = 1
	s := startServer(t, cfg)

	c1, err := Dial(s.Addr(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	begin := time.Now()
	_, err = Dial(s.Addr(), "p2")
	if err == nil {
		t.Fatal("second connection accepted beyond MaxConns=1")
	}
	if !strings.Contains(err.Error(), "busy") {
		t.Errorf("refusal error %q does not mention busy", err)
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Errorf("refusal took %v, want immediate", elapsed)
	}
	if s.RefusedConns() != 1 {
		t.Errorf("refused = %d", s.RefusedConns())
	}
	if s.AcceptedConns() != 1 {
		t.Errorf("accepted = %d", s.AcceptedConns())
	}
}

func TestRecordEntryRoundsAndValidates(t *testing.T) {
	now := time.Now()
	r := TransferRecord{
		PlayerID: "player-1",
		RemoteIP: "127.0.0.1",
		URI:      "/live/feed1",
		Start:    now,
		End:      now.Add(1700 * time.Millisecond),
		Bytes:    4096,
		Frames:   3,
	}
	e := RecordEntry(r)
	if err := e.Validate(); err != nil {
		t.Fatalf("entry invalid: %v", err)
	}
	if e.Duration != 2 {
		t.Errorf("duration = %d, want 2 (1.7s rounded)", e.Duration)
	}
	if e.AvgBandwidth == 0 {
		t.Error("bandwidth not computed")
	}
}
