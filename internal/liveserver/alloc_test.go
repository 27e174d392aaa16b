package liveserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestWatchAllocatesNoFrameBuffer: a transfer's payload is skipped in
// the client's read buffer, not copied into a frame-sized one, and the
// buffers a connection needs come back from the pools. Counted over
// the whole process — the in-process server's handlers included — a
// watch costs under 8 KB (a 64 KB frame buffer before) and a dial +
// close under 16 KB (a 64 KB reader and a 32 KB writer before).
func TestWatchAllocatesNoFrameBuffer(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of what it is handed")
			}
		}
	}
	cfg := DefaultServerConfig()
	cfg.FrameInterval = 2 * time.Millisecond
	s := startServer(t, cfg)

	session := func(watches int) {
		c, err := Dial(s.Addr(), "alloc-probe")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < watches; i++ {
			res, err := c.WatchTagged("/live/feed1", 7, i, 10*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.Frames == 0 || res.Bytes != int64(res.Frames)*int64(cfg.FrameBytes) {
				t.Fatalf("watch %d: %d frames, %d bytes", i, res.Frames, res.Bytes)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A collection would empty the pools mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	session(2) // warm up: fill the pools
	session(2)

	const rounds = 20
	dials := allocated(func() {
		for i := 0; i < rounds; i++ {
			session(0)
		}
	}) / rounds
	both := allocated(func() { session(rounds) })
	watch := (both - min(both, dials)) / rounds
	t.Logf("%d B per Dial + Close, %d B per WatchTagged", dials, watch)
	if dials >= 16<<10 {
		t.Errorf("Dial + Close allocates %d B, want under 16 KB: the connection buffers are not recycled", dials)
	}
	if watch >= 8<<10 {
		t.Errorf("WatchTagged allocates %d B, want under 8 KB: something frame-sized is allocated per transfer", watch)
	}
}

// TestWatchFrameCutShort: a connection that dies inside a payload is
// reported as io.ReadFull reported it — an unexpected EOF, or a plain
// EOF when not one payload byte arrived.
func TestWatchFrameCutShort(t *testing.T) {
	for _, sent := range []int{0, 40} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			r.ReadString('\n') // HELLO
			fmt.Fprint(conn, "OK HELLO\n")
			r.ReadString('\n') // START
			fmt.Fprintf(conn, "OK START /x\nDATA 100\n%s", make([]byte, sent))
		}()
		c, err := Dial(ln.Addr().String(), "p")
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Watch("/x", time.Second)
		want := io.ErrUnexpectedEOF
		if sent == 0 {
			want = io.EOF
		}
		if !errors.Is(err, want) || errors.Is(err, ErrProtocol) {
			t.Errorf("%d of 100 payload bytes: err = %v, want %v", sent, err, want)
		}
		c.Close()
		ln.Close()
	}
}
