// Package loadgen replays generated workloads against the live TCP
// streaming server (internal/liveserver) — the closing of the
// generate → serve → measure loop over real sockets.
//
// The discrete-event simulator (internal/simulate) produces paper-scale
// traces without touching the network; this package is its wire-level
// complement: every workload event becomes a real transfer on a real
// connection, scheduled on a virtual clock that compresses trace time
// by a configurable factor, under a bounded connection budget with
// backpressure, and measured online with the stats estimators
// (latency, throughput, scheduling lag, failure taxonomy).
//
// # Connection model
//
// Connections are pooled per client: a client's transfers ride one
// persistent connection (HELLO once, many STARTs), matching how media
// players actually behave and keeping the connection count near the
// number of concurrently active clients rather than active transfers.
// Two deviations are handled explicitly:
//
//   - Overlapping transfers by one client (the generator's gap draws
//     allow a transfer to start before the previous one ends) run on
//     ephemeral overflow connections, because the control protocol is
//     one transfer per connection at a time. Serializing them instead
//     would shift start times and corrupt the replayed session
//     structure.
//   - The connection budget (MaxConns) covers pooled and overflow
//     connections alike. When the budget is exhausted the dispatcher
//     first retires idle pooled connections (stalest first), then
//     blocks — backpressure, surfaced in the result as scheduling lag
//     rather than silent connection-count growth.
package loadgen

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/liveserver"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// ErrBadConfig reports an invalid replay configuration.
var ErrBadConfig = errors.New("loadgen: bad configuration")

// Config parameterizes a replay.
type Config struct {
	// Compression is trace seconds per wall second: 600 replays one
	// trace hour in six wall seconds.
	Compression float64
	// MaxConns bounds concurrently open connections (pooled + overflow).
	MaxConns int
	// MinWatch floors the wall-clock watch time of a transfer so that
	// heavily compressed transfers still exchange at least one frame.
	MinWatch time.Duration
	// IdleConn is how long an idle pooled connection may hold a
	// connection slot before the dispatcher may retire it under
	// pressure. Keep it below the server's IdleTimeout, or the server
	// retires the connection first and the pool pays a redial.
	IdleConn time.Duration
	// MaxTransfers caps replayed events (0 = drain the stream).
	MaxTransfers int

	// Frontend marks the replay target as a fleet redirector front-end
	// (internal/cluster) rather than a liveserver: every (client,
	// object) route is resolved through it — HELLO/START answered with
	// REDIRECT — and the transfer runs against the redirected node.
	// Routes are cached sticky per (client, object); exactly one
	// redirect hop is ever followed. When a node dies, affected
	// transfers re-resolve through the front-end (bounded retries) and
	// the recovery is recorded in the metrics as a failover.
	Frontend bool
	// ResolveTimeout bounds one front-end route lookup.
	ResolveTimeout time.Duration
	// FailoverAttempts is how many times a failed transfer re-resolves
	// and retries before being counted lost (fleet mode only).
	FailoverAttempts int

	// PlayerOf maps a client index to the player ID sent in HELLO. Nil
	// uses the generator's population naming (player-%07d).
	PlayerOf func(client int) string
	// URIOf maps an object index to its live URI. Nil uses the
	// simulator's object naming (/live/feedN).
	URIOf func(object int) string
}

// DefaultConfig replays one trace hour in six wall seconds over at most
// 256 connections.
func DefaultConfig() Config {
	return Config{
		Compression:      600,
		MaxConns:         256,
		MinWatch:         40 * time.Millisecond,
		IdleConn:         2 * time.Second,
		ResolveTimeout:   5 * time.Second,
		FailoverAttempts: 3,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Compression <= 0 {
		return fmt.Errorf("%w: compression %v", ErrBadConfig, c.Compression)
	}
	if c.MaxConns < 1 {
		return fmt.Errorf("%w: max conns %d", ErrBadConfig, c.MaxConns)
	}
	if c.MinWatch <= 0 {
		return fmt.Errorf("%w: min watch %v", ErrBadConfig, c.MinWatch)
	}
	if c.IdleConn <= 0 {
		return fmt.Errorf("%w: idle conn %v", ErrBadConfig, c.IdleConn)
	}
	if c.MaxTransfers < 0 {
		return fmt.Errorf("%w: max transfers %d", ErrBadConfig, c.MaxTransfers)
	}
	if c.Frontend {
		if c.ResolveTimeout <= 0 {
			return fmt.Errorf("%w: resolve timeout %v", ErrBadConfig, c.ResolveTimeout)
		}
		if c.FailoverAttempts < 0 {
			return fmt.Errorf("%w: failover attempts %d", ErrBadConfig, c.FailoverAttempts)
		}
	}
	return nil
}

func (c *Config) playerOf(client int) string {
	if c.PlayerOf != nil {
		return c.PlayerOf(client)
	}
	return fmt.Sprintf("player-%07d", client)
}

func (c *Config) uriOf(object int) string {
	if c.URIOf != nil {
		return c.URIOf(object)
	}
	return simulate.ObjectURI(object)
}

// Replay drives the stream against the server at addr. It consumes the
// stream in order on a single dispatcher goroutine — the virtual-time
// scheduler — and returns when every dispatched transfer has finished.
// Transfer failures (refusals at capacity, protocol errors, timeouts)
// are counted, not fatal: live viewers that cannot be served are lost,
// which is exactly the phenomenon worth measuring.
func Replay(addr string, stream workload.Stream, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &runner{
		addr:  addr,
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxConns),
		m:     newMetrics(),
	}
	if cfg.Frontend {
		r.resolver = newResolver(addr, cfg.ResolveTimeout, r.m)
	}
	workers := make(map[int]*worker)

	dispatched := 0
	for {
		if cfg.MaxTransfers > 0 && dispatched >= cfg.MaxTransfers {
			workload.CloseStream(stream)
			break
		}
		ev, ok := stream.Next()
		if !ok {
			break
		}
		if dispatched == 0 {
			r.begin = time.Now()
			r.origin = ev.Start
		}
		dispatched++
		if sleep := time.Until(r.wallAt(ev.Start)); sleep > 0 {
			time.Sleep(sleep)
		} else if sleep < 0 {
			r.m.addLag(-sleep)
		}
		r.dispatch(workers, ev)
	}
	for _, w := range workers {
		close(w.jobs)
	}
	r.wg.Wait()

	res := r.m.result()
	res.Attempted = dispatched
	res.Begin = r.begin
	res.Origin = r.origin
	res.Compression = cfg.Compression
	if dispatched > 0 {
		res.Wall = time.Since(r.begin)
		if secs := res.Wall.Seconds(); secs > 0 {
			res.ThroughputBps = float64(res.Bytes*8) / secs
		}
	}
	return res, nil
}

// runner is the shared state of one replay.
type runner struct {
	addr     string
	cfg      Config
	slots    chan struct{} // connection budget: one token per open conn
	wg       sync.WaitGroup
	m        *metrics
	resolver *resolver // non-nil in fleet (front-end) mode
	begin    time.Time
	origin   int64
}

// wallAt maps a trace instant onto the replay's wall clock.
func (r *runner) wallAt(traceSec int64) time.Time {
	return r.begin.Add(time.Duration(float64(traceSec-r.origin) / r.cfg.Compression * float64(time.Second)))
}

// worker is the dispatcher's handle on one pooled per-client
// connection. jobs is unbuffered: a non-blocking send succeeds exactly
// when the worker goroutine is parked between transfers, so "send
// failed" is the overlap signal that routes to an overflow connection.
// busy mirrors that state for the reaper: closing a mid-transfer
// worker would free no capacity (its slot releases only when the
// transfer ends), so eviction must target parked workers only.
type worker struct {
	jobs     chan workload.Event
	lastUsed time.Time
	busy     atomic.Bool
}

// dispatch routes one event: pooled connection if the client has an
// idle one, a fresh pooled worker if the client has none, an ephemeral
// overflow connection if the client's worker is mid-transfer.
func (r *runner) dispatch(workers map[int]*worker, ev workload.Event) {
	if w, ok := workers[ev.Client]; ok {
		select {
		case w.jobs <- ev:
			w.lastUsed = time.Now()
			return
		default: // worker mid-transfer: the client overlaps itself
		}
		r.acquireSlot(workers)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.releaseSlot()
			c, _ := r.perform(nil, "", ev, false)
			if c != nil {
				c.Close()
			}
		}()
		return
	}
	r.acquireSlot(workers)
	w := &worker{jobs: make(chan workload.Event), lastUsed: time.Now()}
	workers[ev.Client] = w
	r.wg.Add(1)
	go r.runWorker(w)
	w.jobs <- ev
}

// acquireSlot takes one connection token, applying backpressure: when
// the budget is exhausted it retires idle pooled connections (stalest
// first) and waits for completions. The dispatcher stalling here is by
// design — the stall shows up as scheduling lag on subsequent events
// instead of an unbounded connection count.
func (r *runner) acquireSlot(workers map[int]*worker) {
	for {
		select {
		case r.slots <- struct{}{}:
			r.m.connOpened()
			return
		default:
		}
		r.reap(workers)
		select {
		case r.slots <- struct{}{}:
			r.m.connOpened()
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// releaseSlot books the close before freeing the token, or a waiting
// acquireSlot books its open first and the peak gauge overshoots MaxConns.
func (r *runner) releaseSlot() {
	r.m.connClosed()
	<-r.slots
}

// reap retires parked pooled connections idle longer than IdleConn; if
// none qualify it retires the single stalest parked one, so a pool
// full of recently-used-but-idle connections cannot stall the budget.
// Mid-transfer workers are never candidates: closing one frees no
// capacity (its slot releases only when the transfer ends), so under
// pressure from busy workers the right move is to wait for
// completions, which the acquireSlot retry loop does.
func (r *runner) reap(workers map[int]*worker) {
	now := time.Now()
	var stalest int
	var stalestAt time.Time
	found := false
	for client, w := range workers {
		if w.busy.Load() {
			continue
		}
		if now.Sub(w.lastUsed) > r.cfg.IdleConn {
			close(w.jobs)
			delete(workers, client)
			found = true
			continue
		}
		if !found && (stalestAt.IsZero() || w.lastUsed.Before(stalestAt)) {
			stalest, stalestAt = client, w.lastUsed
		}
	}
	if !found && !stalestAt.IsZero() {
		close(workers[stalest].jobs)
		delete(workers, stalest)
	}
}

// runWorker serves one client's transfer sequence over a pooled
// connection, dialing lazily and holding its connection slot until
// retired. In fleet mode the connection is pinned to the node of the
// client's most recent route: a route to a different node closes it and
// redials (clients mostly re-watch one object, so the pin rarely
// moves).
func (r *runner) runWorker(w *worker) {
	defer r.wg.Done()
	defer r.releaseSlot()
	var c *liveserver.Client
	var cAddr string
	for ev := range w.jobs {
		w.busy.Store(true)
		c, cAddr = r.perform(c, cAddr, ev, true)
		w.busy.Store(false)
	}
	if c != nil {
		c.Close()
	}
}

// perform runs one transfer, returning the connection and its node
// address for reuse (nil if it died). A pooled connection that fails
// gets one redial-and-retry against the same node: the usual cause is
// the server's idle timeout having harvested it between transfers,
// which is the pool's fault, not the workload's. In fleet mode a
// transfer that still fails re-resolves its route through the front-end
// and retries on whatever node the fleet now names — the failover path;
// recoveries are counted, and a transfer lost after all retries is
// recorded with its workload event so validation can exclude exactly
// the lost events.
func (r *runner) perform(c *liveserver.Client, cAddr string, ev workload.Event, pooled bool) (*liveserver.Client, string) {
	addr, err := r.routeOf(ev)
	if err == nil {
		if c != nil && cAddr != addr {
			c.Close()
			c = nil
		}
		fresh := c == nil
		if c == nil {
			c, err = r.dial(addr, ev.Client)
		}
		if err == nil {
			err = r.watch(c, ev)
			if err != nil && pooled && !fresh {
				c.Close()
				c, err = r.dial(addr, ev.Client)
				if err == nil {
					err = r.watch(c, ev)
				}
			}
		}
	} else if c != nil {
		// Route lookup failed; the pooled connection's node is unknown
		// for this event, so it cannot be reused.
		c.Close()
		c = nil
	}
	// Fleet failover: every failure — including the initial route
	// lookup's — gets the same bounded re-resolve-and-retry, except a
	// redirect loop, where re-resolving would hand back the same
	// misconfigured answer: that fails fast under the one-hop bound.
	if err != nil && r.resolver != nil && classify(err) != failureRedirectLoop {
		if c != nil {
			c.Close()
			c = nil
		}
		key := routeKey{ev.Client, ev.Object}
		failedAddr := addr
		for attempt := 0; attempt < r.cfg.FailoverAttempts && err != nil; attempt++ {
			r.resolver.invalidate(key, addr)
			// Give the front-end a beat to notice the death; the first
			// retry is immediate (a killed node deregisters instantly).
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
			if addr, err = r.routeOf(ev); err != nil {
				continue
			}
			if c, err = r.dial(addr, ev.Client); err != nil {
				continue
			}
			if err = r.watch(c, ev); err != nil {
				c.Close()
				c = nil
				if classify(err) == failureRedirectLoop {
					break // misconfigured fleet: retrying cannot help
				}
			}
		}
		// A failover is a recovery whose route actually moved — a retry
		// that succeeded on the same node was a transient blip, not a
		// reroute, and must not inflate the node-failure evidence.
		if err == nil && addr != failedAddr {
			r.m.failedOver()
		}
	}
	if err != nil {
		r.m.lost(ev, err)
		if c != nil {
			c.Close()
		}
		return nil, ""
	}
	return c, addr
}

// routeOf names the node serving the event: the fixed server address in
// direct mode, the front-end's (cached) answer in fleet mode.
func (r *runner) routeOf(ev workload.Event) (string, error) {
	if r.resolver == nil {
		return r.addr, nil
	}
	return r.resolver.resolve(routeKey{ev.Client, ev.Object}, r.cfg.playerOf(ev.Client), r.cfg.uriOf(ev.Object))
}

// dial opens and HELLOs a connection to addr for the client, recording
// dial latency on success.
func (r *runner) dial(addr string, client int) (*liveserver.Client, error) {
	begin := time.Now()
	c, err := liveserver.Dial(addr, r.cfg.playerOf(client))
	if err != nil {
		return nil, err
	}
	r.m.dialed(time.Since(begin))
	return c, nil
}

// watch runs the transfer: watch until the event's end instant on the
// virtual clock (so a late start shortens the watch instead of shifting
// the transfer's end), floored at MinWatch. The transfer is tagged with
// its workload event identity, which the server logs — the key the
// fleet's merged-log verification joins on.
func (r *runner) watch(c *liveserver.Client, ev workload.Event) error {
	dur := time.Until(r.wallAt(ev.End()))
	if dur < r.cfg.MinWatch {
		dur = r.cfg.MinWatch
	}
	res, err := c.WatchTagged(r.cfg.uriOf(ev.Object), int64(ev.Session), ev.Seq, dur)
	if err != nil {
		return err
	}
	r.m.transferDone(res)
	return nil
}

// classify buckets a transfer or dial error for the failure taxonomy.
func classify(err error) failureKind {
	switch {
	case err == nil:
		return failureNone
	case strings.Contains(err.Error(), "busy"):
		return failureRefused
	case strings.Contains(err.Error(), "REDIRECT"):
		return failureRedirectLoop
	case strings.Contains(err.Error(), "dial"):
		return failureDial
	default:
		return failureProtocol
	}
}
