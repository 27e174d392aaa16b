package liveserver

import (
	"math"

	"repro/internal/wmslog"
)

// RecordEntry renders a completed-transfer record as a wall-clock
// Windows-Media-Server-style log entry — the server-side log format the
// whole characterization pipeline consumes. lsmserve writes these
// directly; a compressed-time replay decompresses them back onto the
// trace clock first (loadgen.Decompress).
//
// The duration is rounded (not truncated) to the log's 1-second
// resolution: under time compression every wall second is worth many
// trace seconds, and rounding halves the worst-case start-time error
// when the trace is reconstructed from timestamp minus duration.
//
// The timestamp is logged in UTC: the wire format carries no zone and
// the parser reads timestamps back as UTC, so logging local time would
// skew every reconstructed instant by the host's zone offset on
// non-UTC machines.
// A tagged transfer (Session >= 0) is logged with its workload identity
// in the referer field — the only free-text column the WMS format
// offers — so a replay's log can be reconciled and digested by event
// identity (wmslog.SessionRef / Entry.SessionSeq).
func RecordEntry(r TransferRecord) *wmslog.Entry {
	referer := ""
	if r.Session >= 0 {
		referer = wmslog.SessionRef(r.Session, r.Seq)
	}
	return &wmslog.Entry{
		Timestamp:    r.End.UTC(),
		ClientIP:     r.RemoteIP,
		PlayerID:     r.PlayerID,
		URIStem:      r.URI,
		Duration:     int64(math.Round(r.End.Sub(r.Start).Seconds())),
		Bytes:        r.Bytes,
		AvgBandwidth: bandwidthOf(r),
		Referer:      referer,
		Status:       200,
		Country:      "BR",
		ASNumber:     1,
	}
}

// bandwidthOf is the average transfer bandwidth in bits per second.
func bandwidthOf(r TransferRecord) int64 {
	secs := r.End.Sub(r.Start).Seconds()
	if secs <= 0 {
		return 0
	}
	return int64(float64(r.Bytes*8) / secs)
}
