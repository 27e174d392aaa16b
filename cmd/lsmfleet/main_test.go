package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestRunRedirectorLifecycle: the redirector comes up, reports node
// registrations, serves a lookup, and shuts down on interrupt.
func TestRunRedirectorLifecycle(t *testing.T) {
	interrupt := make(chan os.Signal, 1)
	out := &syncWriter{b: &strings.Builder{}}
	done := make(chan error, 1)
	go func() { done <- runRedirector("127.0.0.1:0", "hash", time.Second, "127.0.0.1:0", interrupt, out) }()

	// The listen address is ephemeral; poll the output for it.
	addr := ""
	deadline := time.Now().Add(3 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("redirector never reported its address: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "fleet redirector on "); ok {
				addr = strings.Fields(rest)[0]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	agent, err := cluster.StartAgent(addr, "10.0.0.1:9001", 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	for !strings.Contains(out.String(), "nodes: 1 registered") {
		if time.Now().After(deadline) {
			t.Fatalf("registration never reported: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err := cluster.Lookup(addr, "player-x", "/live/feed1", time.Second)
	if err != nil || got != "10.0.0.1:9001" {
		t.Fatalf("lookup: %q, %v", got, err)
	}

	// The /metrics endpoint reports the same state the log lines do.
	maddr := ""
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "metrics on http://"); ok {
			maddr = strings.TrimSuffix(strings.Fields(rest)[0], "/metrics")
		}
	}
	if maddr == "" {
		t.Fatalf("metrics address never reported: %q", out.String())
	}
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"nodes_up 1\n", "nodes_registered 1\n", "redirects 1\n", "no_node_errors 0\n", "heartbeat_expiries 0\n"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	interrupt <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("redirector did not shut down")
	}
	if err := runRedirector("127.0.0.1:0", "bogus", time.Second, "", interrupt, &out2{}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// syncWriter serializes concurrent writes from the redirector loop with
// the test's reads.
type syncWriter struct {
	mu sync.Mutex
	b  *strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

type out2 struct{}

func (out2) Write(p []byte) (int, error) { return len(p), nil }
