// Package simulate is the discrete-event Windows-Media-Server stand-in:
// it serves a generated request stream (package gismo), models each
// transfer's bandwidth and the server's CPU load, and emits both an
// in-memory trace (package trace) and Windows-Media-Server-style log
// entries (package wmslog).
//
// The paper's trace came from a production server the authors could not
// release; this simulator is the substitution (see DESIGN.md). It
// preserves the behaviours the characterization depends on:
//
//   - unicast transfers only (the server's multicast was disabled);
//   - bimodal transfer bandwidth — client-bound spikes at access-link
//     speeds plus a ~10% congestion-bound low mode (Figure 20);
//   - server CPU that stays below 10% except under extreme concurrency
//     (Section 2.4's sanity check);
//   - 1-second log timestamp resolution, entries written at transfer end;
//   - daily log harvests, plus an optional injection of corrupt
//     "spanning" entries like the multi-harvest artifacts the paper had
//     to sanitize away.
package simulate

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/gismo"
	"repro/internal/heapx"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// ErrBadConfig reports invalid simulator configuration.
var ErrBadConfig = errors.New("simulate: bad config")

// Config parameterizes the server model.
type Config struct {
	// CongestionFrac is the probability that a transfer is congestion-
	// bound rather than client-bound. The paper estimates "around 10% of
	// all transfers were congestion-bound" (Section 5.4).
	CongestionFrac float64
	// CongestionMu/CongestionSigma are the lognormal parameters of the
	// congestion-bound bandwidth mode, in log-bits/second.
	CongestionMu, CongestionSigma float64
	// BandwidthJitter is the relative jitter applied to client-bound
	// bandwidth (access-link speed), smearing the Figure 20 spikes.
	BandwidthJitter float64
	// EncodingBps caps the effective payload rate used for byte
	// accounting: a live stream cannot deliver more payload than its
	// encoding rate even over a fast link.
	EncodingBps int64
	// CPUPerTransfer is the server CPU percentage consumed per concurrent
	// transfer; CPUNoise adds measurement jitter.
	CPUPerTransfer float64
	CPUNoise       float64
	// LossPerKbps scales packet loss with congestion severity.
	BaseLossRate float64

	// SpanningPerMillion injects, per million genuine transfers, one
	// corrupt entry whose duration exceeds the trace period — the
	// multi-harvest artifacts of Section 2.4. Zero disables injection.
	SpanningPerMillion int

	// Epoch is the wall-clock instant of trace second 0 for log entries.
	Epoch time.Time
}

// DefaultConfig returns the calibrated server model.
func DefaultConfig() Config {
	return Config{
		CongestionFrac:     0.10,
		CongestionMu:       math.Log(9000), // ~9 kbit/s center
		CongestionSigma:    1.0,
		BandwidthJitter:    0.04,
		EncodingBps:        110000, // ~110 kbit/s effective payload
		CPUPerTransfer:     0.002,  // 2,500 concurrent transfers -> 5% CPU
		CPUNoise:           0.3,
		BaseLossRate:       0.001,
		SpanningPerMillion: 40,
		Epoch:              wmslog.TraceEpoch,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.CongestionFrac < 0 || c.CongestionFrac > 1 {
		return fmt.Errorf("%w: congestion fraction %v", ErrBadConfig, c.CongestionFrac)
	}
	if c.CongestionSigma <= 0 {
		return fmt.Errorf("%w: congestion sigma %v", ErrBadConfig, c.CongestionSigma)
	}
	if c.BandwidthJitter < 0 || c.BandwidthJitter >= 1 {
		return fmt.Errorf("%w: bandwidth jitter %v", ErrBadConfig, c.BandwidthJitter)
	}
	if c.EncodingBps <= 0 {
		return fmt.Errorf("%w: encoding rate %d", ErrBadConfig, c.EncodingBps)
	}
	if c.CPUPerTransfer < 0 || c.CPUNoise < 0 {
		return fmt.Errorf("%w: CPU model", ErrBadConfig)
	}
	if c.SpanningPerMillion < 0 {
		return fmt.Errorf("%w: spanning injection %d", ErrBadConfig, c.SpanningPerMillion)
	}
	if c.Epoch.IsZero() {
		return fmt.Errorf("%w: zero epoch", ErrBadConfig)
	}
	return nil
}

// Result is the outcome of a simulation run.
type Result struct {
	Trace *trace.Trace
	// Entries are the log entries in timestamp (transfer end) order,
	// including any injected corrupt entries.
	Entries []*wmslog.Entry
	// PeakConcurrency is the maximum number of simultaneously active
	// transfers observed.
	PeakConcurrency int
	// Injected counts corrupt spanning entries added to Entries.
	Injected int
}

// Run serves the workload and returns the resulting trace and log. It
// is the materializing compatibility wrapper around RunStream: the
// workload is replayed as an event stream and every transfer and log
// entry is collected in memory (entries are copied out of the stream's
// pool). seed drives every server-model draw; equal seeds give
// identical results at any serve-lane count. Scale-sensitive callers
// should use RunStream or RunStreamSharded with sinks instead.
func Run(w *gismo.Workload, cfg Config, seed uint64) (*Result, error) {
	if w == nil || len(w.Requests) == 0 {
		return nil, fmt.Errorf("%w: empty workload", ErrBadConfig)
	}
	transfers := make([]trace.Transfer, 0, len(w.Requests))
	entries := make([]*wmslog.Entry, 0, len(w.Requests))
	var names *trace.Names
	res, err := RunStream(w.Stream(), w.Population, w.Model.Horizon, cfg, seed, StreamSinks{
		Transfer: func(t trace.Transfer) error {
			transfers = append(transfers, t)
			return nil
		},
		Names: func(n *trace.Names) { names = n },
		Entry: func(e *wmslog.Entry) error {
			cp := *e
			entries = append(entries, &cp)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	tr, err := trace.New(w.Model.Horizon, transfers)
	if err != nil {
		return nil, err
	}
	tr.Names = names
	return &Result{
		Trace:           tr,
		Entries:         entries,
		PeakConcurrency: res.PeakConcurrency,
		Injected:        res.Injected,
	}, nil
}

// WriteLogs streams the result's entries through a DailyWriter rooted at
// dir, mirroring the paper's daily log harvests. It returns the file
// paths written.
func (r *Result) WriteLogs(dir string) ([]string, error) {
	dw, err := wmslog.NewDailyWriter(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range r.Entries {
		if err := dw.Write(e); err != nil {
			dw.Close()
			return nil, err
		}
	}
	if err := dw.Close(); err != nil {
		return nil, err
	}
	return dw.Files(), nil
}

// ObjectURI renders the live-object URI logged for object index i.
func ObjectURI(i int) string {
	return fmt.Sprintf("/live/feed%d", i+1)
}

// concurrencyTracker tracks the number of active transfers as requests
// are admitted in start order. End times within the ring's window land
// in a per-second count ring — O(1) per admission, amortized one ring
// step per simulated second — and only the rare transfer longer than
// the window (the lognormal tail) pays for a min-heap entry. The
// admitted counts are exactly those of the classic end-time heap.
type concurrencyTracker struct {
	ring      []int32 // ends per second, indexed by end & ringMask
	watermark int64   // latest admitted start; ring covers (watermark, watermark+len]
	active    int
	peak      int
	started   bool
	expired   int               // already-over admissions (end <= start), gone at the next admit
	farEnds   heapx.Heap[int64] // ends beyond the ring window
}

// trackerRingSeconds is the ring window (power of two). The default
// transfer-length tail puts ~0.06% of transfers beyond ~2.3 hours, so
// almost every admission stays on the O(1) path.
const trackerRingSeconds = 1 << 13

func newConcurrencyTracker() *concurrencyTracker {
	return &concurrencyTracker{
		ring:    make([]int32, trackerRingSeconds),
		farEnds: heapx.New(func(a, b *int64) bool { return *a < *b }),
	}
}

// admit registers a transfer [start, end) and returns the concurrency
// level including it. Requests must arrive in non-decreasing start
// order. Like the end-time heap this replaces, a transfer whose end is
// at or before its own start (a degenerate zero-length request from an
// external stream) is counted in its own admission and expires at the
// very next one.
func (c *concurrencyTracker) admit(start, end int64) int {
	const mask = trackerRingSeconds - 1
	if !c.started {
		c.watermark = start
		c.started = true
	}
	// Expire everything that ended at or before the new start.
	c.active -= c.expired
	c.expired = 0
	for c.watermark < start {
		c.watermark++
		slot := &c.ring[c.watermark&mask]
		c.active -= int(*slot)
		*slot = 0
	}
	for c.farEnds.Len() > 0 && c.farEnds.Peek() <= start {
		c.farEnds.Pop()
		c.active--
	}
	switch {
	case end <= start:
		// The heap would have popped this end at the next admission
		// (any later start is >= this one); mirror that exactly.
		c.expired++
	case end-c.watermark <= trackerRingSeconds:
		c.ring[end&mask]++
	default:
		c.farEnds.Push(end)
	}
	c.active++
	if c.active > c.peak {
		c.peak = c.active
	}
	return c.active
}
