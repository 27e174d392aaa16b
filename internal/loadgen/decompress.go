package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// DecompressEntries maps the server's wall-clock log entries from a
// compressed-time replay back onto the trace clock, producing entries
// a characterization run can consume as if the trace had been served in
// real time: timestamps become epoch + trace seconds, durations are
// re-expanded by the compression factor, and bandwidths are recomputed
// against trace-time durations.
//
// begin/origin/compression come from the replay's Result: wall instant
// begin corresponds to trace second origin, and every wall second spans
// compression trace seconds. The server log's 1-second resolution
// therefore quantizes reconstructed instants to ±compression trace
// seconds — validation must compare at a granularity (session timeout)
// comfortably above that.
func DecompressEntries(entries []*wmslog.Entry, begin time.Time, origin int64, compression float64, epoch time.Time) ([]*wmslog.Entry, error) {
	if compression <= 0 {
		return nil, fmt.Errorf("%w: compression %v", ErrBadConfig, compression)
	}
	out := make([]*wmslog.Entry, 0, len(entries))
	for _, e := range entries {
		traceEnd := origin + int64(math.Round(e.Timestamp.Sub(begin).Seconds()*compression))
		traceDur := int64(math.Round(float64(e.Duration) * compression))
		if traceDur < 1 {
			traceDur = 1
		}
		if traceEnd < traceDur {
			traceEnd = traceDur
		}
		bw := int64(0)
		if traceDur > 0 {
			bw = e.Bytes * 8 / traceDur
		}
		d := *e
		d.Timestamp = epoch.Add(time.Duration(traceEnd) * time.Second)
		d.Duration = traceDur
		d.AvgBandwidth = bw
		out = append(out, &d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out, nil
}

// SafeTimeout finds a session timeout in the widest void of the
// offered workload's silent-gap distribution, at least slack
// trace-seconds from any actual gap. Decompression noise below slack
// then cannot move any gap across the timeout, so offered and served
// session counts can be compared exactly. Reasonable slack is a few
// multiples of the compression factor (the log's wall-second resolution
// re-expanded). Returns false if no gap-free band that wide exists.
func SafeTimeout(tr *trace.Trace, slack int64) (int64, bool) {
	gaps := []int64{0}
	ci := tr.ByClient()
	for k := 0; k < ci.Len(); k++ {
		coverage := int64(-1)
		for _, i := range ci.Transfers(k) {
			tx := &tr.Transfers[i]
			if coverage >= 0 && tx.Start > coverage {
				gaps = append(gaps, tx.Start-coverage)
			}
			if end := tx.End(); end > coverage {
				coverage = end
			}
		}
	}
	// A timeout above every observed gap is valid too (no session ever
	// splits), so the search space extends past the horizon.
	gaps = append(gaps, 4*tr.Horizon)
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })

	var best, bestWidth int64
	for i := 1; i < len(gaps); i++ {
		if w := gaps[i] - gaps[i-1]; w > bestWidth {
			bestWidth = w
			best = gaps[i-1] + w/2
		}
	}
	if bestWidth/2 < slack || best < 1 {
		return 0, false
	}
	return best, true
}

// OfferedTrace materializes a replayed event sequence as a trace, so
// the offered workload can run through the same sessionization and
// characterization as the served one. Only the fields the session and
// transfer layers read from a replay comparison — client, start,
// duration — carry workload information; wire-level fields are stubbed.
func OfferedTrace(events []workload.Event, horizon int64) (*trace.Trace, error) {
	transfers := make([]trace.Transfer, 0, len(events))
	for _, e := range events {
		if e.Client != int(int32(e.Client)) || e.Object != int(uint16(e.Object)) {
			return nil, fmt.Errorf("%w: client %d or object %d beyond what a transfer can number", trace.ErrBadTrace, e.Client, e.Object)
		}
		transfers = append(transfers, trace.Transfer{
			Client:   int32(e.Client),
			AS:       1,
			Object:   uint16(e.Object),
			Start:    e.Start,
			Duration: e.Duration,
			Bytes:    1,
		})
	}
	tr, err := trace.New(horizon, transfers)
	if err != nil {
		return nil, err
	}
	tr.Names = &trace.Names{IPs: []string{"0.0.0.0"}, Countries: []string{"BR"}}
	return tr, nil
}
