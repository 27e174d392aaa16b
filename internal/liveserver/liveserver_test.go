package liveserver

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func fastConfig() ServerConfig {
	cfg := DefaultServerConfig()
	cfg.FrameBytes = 256
	cfg.FrameInterval = 5 * time.Millisecond
	return cfg
}

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestParseCommand(t *testing.T) {
	cases := []struct {
		line    string
		verb    string
		arg     string
		wantErr bool
	}{
		{"HELLO player-1\n", "HELLO", "player-1", false},
		{"START /live/feed1\n", "START", "/live/feed1", false},
		{"STOP\n", "STOP", "", false},
		{"QUIT\n", "QUIT", "", false},
		{"\n", "", "", true},
		{"HELLO\n", "", "", true},
		{"HELLO two words\n", "", "", true},
		{"STOP now\n", "", "", true},
		{"BOGUS\n", "", "", true},
	}
	for _, c := range cases {
		cmd, err := parseCommand(c.line)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseCommand(%q): want error", c.line)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseCommand(%q): %v", c.line, err)
			continue
		}
		if cmd.verb != c.verb || cmd.arg != c.arg {
			t.Errorf("parseCommand(%q) = %+v", c.line, cmd)
		}
	}
}

func TestParseDataHeaderAndEnd(t *testing.T) {
	if n, err := parseDataHeader("DATA 1375\n"); err != nil || n != 1375 {
		t.Errorf("DATA: n=%d err=%v", n, err)
	}
	for _, bad := range []string{"DATA x\n", "DATA -1\n", "DATA 9999999\n", "NOPE 5\n"} {
		if _, err := parseDataHeader(bad); err == nil {
			t.Errorf("parseDataHeader(%q): want error", bad)
		}
	}
	if b, f, err := parseEnd("END 2750 2\n"); err != nil || b != 2750 || f != 2 {
		t.Errorf("END: b=%d f=%d err=%v", b, f, err)
	}
	for _, bad := range []string{"END\n", "END 1\n", "END x y\n", "END 1 y\n", "END -1 2\n"} {
		if _, _, err := parseEnd(bad); err == nil {
			t.Errorf("parseEnd(%q): want error", bad)
		}
	}
}

func TestServeRejectsBadConfig(t *testing.T) {
	bad := []ServerConfig{
		{FrameBytes: 0, FrameInterval: time.Millisecond, MaxConns: 1, Objects: []string{"/x"}},
		{FrameBytes: MaxFrameBytes + 1, FrameInterval: time.Millisecond, MaxConns: 1, Objects: []string{"/x"}},
		{FrameBytes: 100, FrameInterval: 0, MaxConns: 1, Objects: []string{"/x"}},
		{FrameBytes: 100, FrameInterval: time.Millisecond, MaxConns: 0, Objects: []string{"/x"}},
		{FrameBytes: 100, FrameInterval: time.Millisecond, MaxConns: 1, Objects: nil},
	}
	for i, cfg := range bad {
		if _, err := Serve("127.0.0.1:0", cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSingleTransfer(t *testing.T) {
	var mu sync.Mutex
	var records []TransferRecord
	cfg := fastConfig()
	cfg.Sink = func(r TransferRecord) {
		mu.Lock()
		records = append(records, r)
		mu.Unlock()
	}
	s := startServer(t, cfg)

	c, err := Dial(s.Addr(), "player-test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Watch("/live/feed1", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames < 5 {
		t.Errorf("frames = %d, want >= 5 over 100 ms at 5 ms pacing", res.Frames)
	}
	if res.Bytes != int64(res.Frames)*int64(cfg.FrameBytes) {
		t.Errorf("bytes = %d for %d frames of %d", res.Bytes, res.Frames, cfg.FrameBytes)
	}
	if s.ServedTransfers() != 1 {
		t.Errorf("served = %d", s.ServedTransfers())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(records) != 1 {
		t.Fatalf("records = %d", len(records))
	}
	r := records[0]
	if r.PlayerID != "player-test" || r.URI != "/live/feed1" || r.Bytes != res.Bytes {
		t.Errorf("record = %+v", r)
	}
}

func TestMultipleTransfersOneConnection(t *testing.T) {
	s := startServer(t, fastConfig())
	c, err := Dial(s.Addr(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		uri := "/live/feed1"
		if i%2 == 1 {
			uri = "/live/feed2"
		}
		if _, err := c.Watch(uri, 30*time.Millisecond); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if s.ServedTransfers() != 3 {
		t.Errorf("served = %d", s.ServedTransfers())
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t, fastConfig())
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), "player-"+string(rune('a'+i)))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Watch("/live/feed1", 60*time.Millisecond); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.ServedTransfers() != n {
		t.Errorf("served = %d, want %d", s.ServedTransfers(), n)
	}
}

func TestUnknownObjectRejected(t *testing.T) {
	s := startServer(t, fastConfig())
	c, err := Dial(s.Addr(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Watch("/live/nope", 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "unknown object") {
		t.Fatalf("want unknown-object error, got %v", err)
	}
}

func TestStartWithoutHelloRejected(t *testing.T) {
	s := startServer(t, fastConfig())
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("START /live/feed1\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "ERR") {
		t.Errorf("server said %q, want ERR", buf[:n])
	}
}

func TestMaxConnsRefusesExtras(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxConns = 2
	s := startServer(t, cfg)

	c1, err := Dial(s.Addr(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(s.Addr(), "p2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The third connection is closed by the server before HELLO gets a
	// reply.
	if _, err := Dial(s.Addr(), "p3"); err == nil {
		t.Fatal("third connection should be refused at MaxConns=2")
	}
	if s.RefusedConns() == 0 {
		t.Error("refused counter not incremented")
	}
}

func TestServerCloseDrainsConnections(t *testing.T) {
	s := startServer(t, fastConfig())
	c, err := Dial(s.Addr(), "p1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain")
	}
}

func TestDialRejectsBadPlayerID(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ""); err == nil {
		t.Error("empty player ID accepted")
	}
	if _, err := Dial("127.0.0.1:1", "two words"); err == nil {
		t.Error("spacey player ID accepted")
	}
}
