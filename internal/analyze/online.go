package analyze

import (
	"fmt"

	"repro/internal/heapx"
	"repro/internal/stats"
	"repro/internal/trace"
)

// OnlineLayer is the single-pass counterpart of the hot estimators the
// batch characterization computes from a materialized trace: basic
// counts, distinct-entity cardinalities, transfer-length and bandwidth
// moments and quantiles, transfer interarrivals, the 15-minute arrival
// series, and peak 1-second transfer concurrency. It consumes transfers
// in start order straight off the serving stream, holding O(1) state
// (plus the fixed bin array), so measurement can ride the same pass
// that generates and serves the workload.
//
// Exactness: counts, bytes, moments, the binned series and peak
// concurrency match the batch pipeline exactly; quantiles come from a
// geometric-bucket sketch (≤ ~4% relative error) and client/IP
// cardinalities from HyperLogLog (≈ 1% standard error). Measured deltas
// are recorded in EXPERIMENTS.md.
type OnlineLayer struct {
	horizon int64

	transfers  int
	totalBytes int64

	clients *stats.HyperLogLog
	ips     *stats.HyperLogLog
	ases    map[uint32]struct{}
	objects map[uint16]struct{}

	lengths   stats.Welford
	lengthQ   *stats.LogQuantile
	bandwidth stats.Welford

	interarrival stats.Welford
	lastStart    int64

	arrivals *stats.OnlineBins

	ends heapx.Heap[int64] // min-heap of active transfer end times
	peak int
}

// NewOnlineLayer builds the accumulator for a trace of the given
// horizon (seconds).
func NewOnlineLayer(horizon int64) (*OnlineLayer, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadInput, horizon)
	}
	clients, err := stats.NewHyperLogLog(14)
	if err != nil {
		return nil, err
	}
	ips, err := stats.NewHyperLogLog(14)
	if err != nil {
		return nil, err
	}
	lengthQ, err := stats.NewLogQuantile(32)
	if err != nil {
		return nil, err
	}
	arrivals, err := stats.NewOnlineBins(horizon, TemporalBin)
	if err != nil {
		return nil, err
	}
	return &OnlineLayer{
		horizon:  horizon,
		clients:  clients,
		ips:      ips,
		ases:     make(map[uint32]struct{}),
		objects:  make(map[uint16]struct{}),
		lengthQ:  lengthQ,
		arrivals: arrivals,
		ends:     heapx.New(func(a, b *int64) bool { return *a < *b }),
	}, nil
}

// Add absorbs one served transfer. Transfers must arrive in
// non-decreasing start order (the serving stream's order).
func (o *OnlineLayer) Add(t trace.Transfer) error {
	if o.transfers > 0 && t.Start < o.lastStart {
		return fmt.Errorf("%w: transfers not in start order (%d after %d)", ErrBadInput, t.Start, o.lastStart)
	}
	if o.transfers > 0 {
		o.interarrival.Add(float64(t.Start - o.lastStart))
	}
	o.lastStart = t.Start
	o.transfers++
	o.totalBytes += t.Bytes

	o.clients.AddInt(int64(t.Client))
	o.ips.AddInt(int64(t.IP))
	o.ases[t.AS] = struct{}{}
	o.objects[t.Object] = struct{}{}

	display := stats.LogDisplayValue(float64(t.Duration))
	o.lengths.Add(display)
	o.lengthQ.Add(display)
	o.bandwidth.Add(float64(t.Bandwidth))
	o.arrivals.Add(t.Start)

	// 1-second concurrency: expire finished transfers, admit this one.
	for o.ends.Len() > 0 && o.ends.Peek() <= t.Start {
		o.ends.Pop()
	}
	o.ends.Push(t.End())
	if o.ends.Len() > o.peak {
		o.peak = o.ends.Len()
	}
	return nil
}

// OnlineSnapshot is the accumulated measurement.
type OnlineSnapshot struct {
	Transfers  int
	TotalBytes int64

	// Clients and IPs are HyperLogLog cardinality estimates.
	Clients float64
	IPs     float64
	ASes    int
	Objects int

	PeakConcurrency int

	LengthMean, LengthStddev    float64
	LengthP50, LengthP90        float64
	LengthP99                   float64
	BandwidthMean               float64
	InterarrivalMean            float64
	Arrivals                    stats.BinnedSeries
	ArrivalsDay, ArrivalsWeekly stats.BinnedSeries
}

// Snapshot renders the current state. The binned series share backing
// arrays with the accumulator.
func (o *OnlineLayer) Snapshot() OnlineSnapshot {
	s := OnlineSnapshot{
		Transfers:        o.transfers,
		TotalBytes:       o.totalBytes,
		Clients:          o.clients.Count(),
		IPs:              o.ips.Count(),
		ASes:             len(o.ases),
		Objects:          len(o.objects),
		PeakConcurrency:  o.peak,
		LengthMean:       o.lengths.Mean(),
		LengthStddev:     o.lengths.Stddev(),
		LengthP50:        o.lengthQ.Quantile(0.5),
		LengthP90:        o.lengthQ.Quantile(0.9),
		LengthP99:        o.lengthQ.Quantile(0.99),
		BandwidthMean:    o.bandwidth.Mean(),
		InterarrivalMean: o.interarrival.Mean(),
		Arrivals:         o.arrivals.Series(),
	}
	if day, err := s.Arrivals.FoldModulo(86400); err == nil {
		s.ArrivalsDay = day
	}
	if week, err := s.Arrivals.FoldModulo(7 * 86400); err == nil {
		s.ArrivalsWeekly = week
	}
	return s
}
