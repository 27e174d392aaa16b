package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/wmslog"
)

func writeTaggedLog(t *testing.T, path string, sessions ...int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := wmslog.NewWriter(f)
	for _, s := range sessions {
		e := &wmslog.Entry{
			Timestamp:    time.Date(2002, 1, 7, 0, 0, int(s%50), 0, time.UTC),
			ClientIP:     "127.0.0.1",
			PlayerID:     "player-1",
			URIStem:      "/live/feed1",
			Duration:     5,
			Bytes:        100,
			AvgBandwidth: 160,
			Referer:      wmslog.SessionRef(s, 0),
			Status:       200,
			ASNumber:     1,
			Country:      "BR",
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRunMerge: per-node logs merge into one parseable log with a
// partition-independent realization digest.
func TestRunMerge(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "node1.log")
	b := filepath.Join(dir, "node2.log")
	writeTaggedLog(t, a, 0, 2, 4)
	writeTaggedLog(t, b, 1, 3)
	single := filepath.Join(dir, "single.log")
	writeTaggedLog(t, single, 0, 1, 2, 3, 4)

	var out bytes.Buffer
	merged := filepath.Join(dir, "merged.log")
	if err := runMerge(merged, []string{a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "merged 5 entries (5 tagged, 0 binary-framed) from 2 logs") {
		t.Fatalf("merge output: %s", out.String())
	}
	entries, _, err := wmslog.ReadFiles([]string{merged}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("merged log has %d entries", len(entries))
	}

	var out2 bytes.Buffer
	merged2 := filepath.Join(dir, "merged2.log")
	if err := runMerge(merged2, []string{single}, &out2); err != nil {
		t.Fatal(err)
	}
	digest := func(s string) string {
		i := strings.Index(s, "realization md5=")
		if i < 0 {
			t.Fatalf("no digest in %q", s)
		}
		return strings.TrimSpace(s[i:])
	}
	if digest(out.String()) != digest(out2.String()) {
		t.Fatalf("fleet and single digests differ:\n%s\n%s", out.String(), out2.String())
	}

	if err := runMerge(filepath.Join(dir, "x.log"), nil, &out); err == nil {
		t.Fatal("merge with no inputs accepted")
	}
}

// TestRunMergeRefusesInputAsOutput: a merge whose output is one of its
// inputs — named as a file, found under a directory input, or a hard
// link to one — is
// refused before anything is written, and every input keeps its bytes:
// creating the output first would empty that input, and the merge would
// report the other logs' entries and a digest of the wrong set.
func TestRunMergeRefusesInputAsOutput(t *testing.T) {
	dir := t.TempDir()
	day6 := filepath.Join(dir, "wms-2002-01-06.log")
	day7 := filepath.Join(dir, "wms-2002-01-07.log")
	writeTaggedLog(t, day6, 0, 2, 4)
	writeTaggedLog(t, day7, 1, 3)
	alias := filepath.Join(t.TempDir(), "alias.log")
	if err := os.Link(day7, alias); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, p := range []string{day6, day7} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = data
	}
	for _, c := range []struct {
		out    string
		inputs []string
	}{
		{day6, []string{day6, day7}},
		{day7, []string{day6, day7}},
		{day6, []string{dir}},
		{alias, []string{day6, day7}},
	} {
		var out bytes.Buffer
		if err := runMerge(c.out, c.inputs, &out); err == nil {
			t.Errorf("merge into %s from %v accepted: %q", c.out, c.inputs, out.String())
		}
		for p, data := range want {
			if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("merge into %s from %v: %s now %d bytes (err %v), want %d", c.out, c.inputs, p, len(got), err, len(data))
			}
		}
	}
}

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
