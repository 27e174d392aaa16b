package loadgen

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/liveserver"
	"repro/internal/stats"
	"repro/internal/workload"
)

type failureKind int

const (
	failureNone failureKind = iota
	failureDial
	failureRefused
	failureProtocol
)

// metrics is the online measurement rail of a replay: Welford moments
// and a log-bucket quantile sketch (the same estimators the streaming
// characterization uses), accumulated under one mutex. Completion rates
// are a few thousand per second at most, far below contention range.
type metrics struct {
	mu sync.Mutex

	completed int
	failed    int
	dialErrs  int
	refused   int
	protoErrs int
	bytes     int64
	frames    int64

	dialLat  stats.Welford // seconds
	startLat stats.Welford // milliseconds
	startQ   *stats.LogQuantile
	lag      stats.Welford // seconds behind the virtual schedule

	curConns  int
	peakConns int
	dials     int

	failedEvents []workload.Event
}

func newMetrics() *metrics {
	return &metrics{startQ: stats.NewLogQuantile()}
}

func (m *metrics) addLag(d time.Duration) {
	m.mu.Lock()
	m.lag.Add(d.Seconds())
	m.mu.Unlock()
}

func (m *metrics) connClosed() {
	m.mu.Lock()
	m.curConns--
	m.mu.Unlock()
}

// dialed books a connection opened: its dial latency, the lifetime
// count and the open gauge.
func (m *metrics) dialed(d time.Duration) {
	m.mu.Lock()
	m.dials++
	m.dialLat.Add(d.Seconds())
	m.curConns++
	m.peakConns = max(m.peakConns, m.curConns)
	m.mu.Unlock()
}

// lost records one ultimately failed transfer: exactly one failure
// count and one taxonomy bucket per lost workload event, redial or
// not, plus the event itself so a validation pass can exclude exactly
// the lost events from the offered workload.
func (m *metrics) lost(ev workload.Event, err error) {
	m.mu.Lock()
	m.failed++
	switch classify(err) {
	case failureRefused:
		m.refused++
	case failureDial:
		m.dialErrs++
	default:
		m.protoErrs++
	}
	m.failedEvents = append(m.failedEvents, ev)
	m.mu.Unlock()
}

func (m *metrics) transferDone(res liveserver.TransferResult) {
	ms := float64(res.StartLatency) / float64(time.Millisecond)
	m.mu.Lock()
	m.completed++
	m.bytes += res.Bytes
	m.frames += int64(res.Frames)
	m.startLat.Add(ms)
	m.startQ.Add(ms)
	m.mu.Unlock()
}

// Result is the measured outcome of a replay.
type Result struct {
	Attempted int
	Completed int
	Failed    int

	// Failure taxonomy: refused at capacity ("ERR busy"), dial/network
	// errors, protocol errors or timeouts.
	Refused        int
	DialErrors     int
	ProtocolErrors int

	Bytes  int64
	Frames int64
	Wall   time.Duration

	// Begin, Origin and Compression pin the virtual clock: trace second
	// Origin replayed at wall instant Begin, Compression trace seconds
	// per wall second. Decompress needs all three to map the server's
	// wall-clock log back onto the trace clock.
	Begin       time.Time
	Origin      int64
	Compression float64

	// Conns is the lifetime number of connections opened (dialed and
	// past HELLO); PeakConns the most of them open at once, so
	// PeakConns ≤ Conns. A dial the server refused counts in neither.
	Conns     int
	PeakConns int

	// FailedEvents are the workload events of ultimately lost transfers
	// (empty on a clean replay): exactly what validation must exclude
	// from the offered workload.
	FailedEvents []workload.Event

	// DialLatency and Lag are in seconds, StartLatency* in
	// milliseconds. Lag is how far dispatch ran behind the virtual
	// schedule (0 when the scheduler kept up).
	DialLatencyMean                                                     float64
	StartLatencyMean, StartLatencyP50, StartLatencyP95, StartLatencyP99 float64
	LagMean, LagMax                                                     float64
	LagSamples                                                          int

	// ThroughputBps is payload bits per wall second over the replay.
	ThroughputBps float64
}

func (m *metrics) result() *Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	res := &Result{
		Completed:        m.completed,
		Failed:           m.failed,
		Refused:          m.refused,
		DialErrors:       m.dialErrs,
		ProtocolErrors:   m.protoErrs,
		Bytes:            m.bytes,
		Frames:           m.frames,
		Conns:            m.dials,
		PeakConns:        m.peakConns,
		DialLatencyMean:  m.dialLat.Mean(),
		StartLatencyMean: m.startLat.Mean(),
		LagSamples:       m.lag.N(),
		FailedEvents:     append([]workload.Event(nil), m.failedEvents...),
	}
	if m.startQ.N() > 0 {
		res.StartLatencyP50 = m.startQ.Quantile(0.5)
		res.StartLatencyP95 = m.startQ.Quantile(0.95)
		res.StartLatencyP99 = m.startQ.Quantile(0.99)
	}
	if m.lag.N() > 0 {
		res.LagMean = m.lag.Mean()
		res.LagMax = m.lag.Max()
	}
	return res
}

// String renders the replay report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d/%d transfers (%d failed: %d refused, %d dial, %d protocol)\n",
		r.Completed, r.Attempted, r.Failed, r.Refused, r.DialErrors, r.ProtocolErrors)
	fmt.Fprintf(&b, "wall %.1fs at compression %.0fx, %d conns (peak %d concurrent)\n",
		r.Wall.Seconds(), r.Compression, r.Conns, r.PeakConns)
	fmt.Fprintf(&b, "payload %.1f MB, %.2f Mbit/s, %d frames\n",
		float64(r.Bytes)/1e6, r.ThroughputBps/1e6, r.Frames)
	fmt.Fprintf(&b, "start latency mean %.2f ms (p50 %.2f, p95 %.2f, p99 %.2f); dial mean %.2f ms\n",
		r.StartLatencyMean, r.StartLatencyP50, r.StartLatencyP95, r.StartLatencyP99, r.DialLatencyMean*1e3)
	if r.LagSamples > 0 {
		fmt.Fprintf(&b, "scheduler lag: mean %.1f ms, max %.1f ms over %d late dispatches",
			r.LagMean*1e3, r.LagMax*1e3, r.LagSamples)
	} else {
		b.WriteString("scheduler kept up with the virtual clock")
	}
	return b.String()
}
