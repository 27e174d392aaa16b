// Package telemetry exposes process counters as a plain-text HTTP
// endpoint: one "name value" line per registered gauge, in registration
// order. It is the ops surface for the serving binaries — an e2e
// harness or an operator curls /metrics instead of grepping logs for
// status lines.
//
// The format is deliberately primitive (no types, no labels, no
// timestamps): every value is a point-in-time int64 read from a gauge
// function, so the endpoint never caches and never races the counters
// it reports.
package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Gauge reads one counter's current value.
type Gauge func() int64

// Registry holds named gauges. The zero value is not ready — use
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	names  []string
	gauges map[string]Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[string]Gauge)}
}

// Set registers g under name, replacing any previous gauge with that
// name (its position in the output is kept). Names are snake_case
// tokens; anything with whitespace is a programming error.
func (r *Registry) Set(name string, g Gauge) {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gauges[name]; !ok {
		r.names = append(r.names, name)
	}
	r.gauges[name] = g
}

// Render writes the current values, one "name value" line per gauge in
// registration order. Gauges run outside the registry lock, so a gauge
// may itself take locks (len of a connection map, say) without ordering
// constraints against Set.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	gauges := make([]Gauge, len(names))
	for i, n := range names {
		gauges[i] = r.gauges[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, gauges[i]()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves GET /metrics from the registry; any other path is 404.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.Render(w)
	})
	return mux
}

// Server is a running /metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the endpoint on addr ("127.0.0.1:0" for an ephemeral
// port). The listener is bound before Serve returns, so the reported
// Addr is immediately connectable.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen: %w", err)
	}
	srv := &http.Server{
		Handler:           reg.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error {
	err := s.srv.Close()
	if err == http.ErrServerClosed {
		err = nil
	}
	return err
}
