package telemetry

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRenderOrderAndValues(t *testing.T) {
	var served atomic.Int64
	served.Store(41)
	reg := NewRegistry()
	reg.Set("conns_open", func() int64 { return 3 })
	reg.Set("transfers_served", served.Load)
	reg.Set("conns_open", func() int64 { return 5 }) // replace keeps position

	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	served.Add(1)
	want := "conns_open 5\ntransfers_served 41\n"
	if sb.String() != want {
		t.Fatalf("render %q want %q", sb.String(), want)
	}

	sb.Reset()
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "transfers_served 42\n") {
		t.Fatalf("gauge not live: %q", sb.String())
	}
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid name")
		}
	}()
	NewRegistry().Set("has space", func() int64 { return 0 })
}

func TestServeEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Set("transfers_served", func() int64 { return 7 })
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if string(body) != "transfers_served 7\n" {
		t.Fatalf("body %q", body)
	}

	other, err := http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	other.Body.Close()
	if other.StatusCode != http.StatusNotFound {
		t.Fatalf("root status %d", other.StatusCode)
	}

	post, err := http.Post("http://"+srv.Addr()+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", post.StatusCode)
	}
}
