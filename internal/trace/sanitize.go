package trace

import (
	"fmt"
	"math/bits"

	"repro/internal/stats"
)

// SanitizeReport records what sanitization removed and why, echoing
// Section 2.4 of the paper.
type SanitizeReport struct {
	Input           int // transfers before sanitization
	Kept            int
	DroppedSpanning int // duration exceeds the trace period (multi-harvest artifacts)
	DroppedOutside  int // interval escapes [0, horizon]
	DroppedNegative int // negative start or duration (corrupt arithmetic)
}

// String implements fmt.Stringer.
func (r SanitizeReport) String() string {
	return fmt.Sprintf("sanitize: kept %d/%d (dropped %d spanning, %d outside, %d negative)",
		r.Kept, r.Input, r.DroppedSpanning, r.DroppedOutside, r.DroppedNegative)
}

// Sanitize returns a new trace with problem entries removed:
//
//   - transfers whose duration exceeds the trace period — the paper found
//     "entries identified request/response activities that span durations
//     longer than the 28-day period of the trace", attributed them to
//     accesses spanning multiple log harvests, and excluded them;
//   - transfers whose [start, end] interval escapes [0, horizon];
//   - transfers with negative start or duration.
func (tr *Trace) Sanitize() (*Trace, SanitizeReport) {
	out := &Trace{Horizon: tr.Horizon, Transfers: tr.Transfers, Names: tr.Names}
	report := out.sanitizeInto(make([]Transfer, 0, len(tr.Transfers)))
	return out, report
}

// sanitizeInto filters tr's transfers into kept, which becomes tr's
// slice. kept may be tr.Transfers[:0] — an owner compacting its trace
// in place, as Collector does: a kept transfer only ever moves down.
func (tr *Trace) sanitizeInto(kept []Transfer) SanitizeReport {
	report := SanitizeReport{}
	for i := range tr.Transfers {
		if report.keep(&tr.Transfers[i], tr.Horizon) {
			kept = append(kept, tr.Transfers[i])
		}
	}
	tr.Transfers, tr.byClient = kept, nil
	return report
}

// keep is the Section 2.4 test of one transfer over horizon seconds
// (see Sanitize): it counts t into the report, as kept or as dropped
// for its reason, and reports whether t is kept.
func (r *SanitizeReport) keep(t *Transfer, horizon int64) bool {
	r.Input++
	switch {
	case t.Duration < 0:
		r.DroppedNegative++
	case t.Duration > horizon:
		r.DroppedSpanning++
	case t.Start < 0 || t.End() > horizon:
		r.DroppedOutside++
	default:
		r.Kept++
		return true
	}
	return false
}

// kept reports whether Sanitize keeps a transfer that starts at start
// and lasts duration seconds, over horizon seconds: keep's test,
// counting nothing.
func kept(start, duration, horizon int64) bool {
	return duration >= 0 && duration <= horizon && start >= 0 && start+duration <= horizon
}

// add counts o's transfers into r.
func (r *SanitizeReport) add(o SanitizeReport) {
	r.Input += o.Input
	r.Kept += o.Kept
	r.DroppedSpanning += o.DroppedSpanning
	r.DroppedOutside += o.DroppedOutside
	r.DroppedNegative += o.DroppedNegative
}

// OverloadAudit is the server-load check of Section 2.4: the fraction of
// time (in 1-second bins spanned by at least one transfer) and the
// fraction of transfers for which server CPU utilization stayed below the
// threshold. The paper reports both above 99% at a 10% threshold, which
// justifies treating the characterization as load-unbiased.
type OverloadAudit struct {
	Threshold         float64
	TimeBelowFrac     float64 // fraction of active seconds below threshold
	TransferBelowFrac float64 // fraction of transfers below threshold
}

// AuditServerLoad computes the overload audit at the given CPU threshold
// (percent). Each transfer contributes its logged CPU reading to every
// second it spans (a faithful stand-in for the paper's per-second
// averaging of CPU samples).
func (tr *Trace) AuditServerLoad(threshold float64) OverloadAudit {
	audit := OverloadAudit{Threshold: threshold}
	if len(tr.Transfers) == 0 {
		audit.TimeBelowFrac = 1
		audit.TransferBelowFrac = 1
		return audit
	}
	var below int
	for _, t := range tr.Transfers {
		if t.ServerCPU < threshold {
			below++
		}
	}
	audit.TransferBelowFrac = float64(below) / float64(len(tr.Transfers))

	// Per-second audit as a sweep over events, not over seconds: a start
	// adds the transfer's reading to the running sum, an end takes it
	// away, and between two event seconds every second reads the same
	// runSum / runCnt. An event is its second packed above its
	// transfer's index (a horizon fits 31 bits: New), so one stable
	// sort by second leaves each second's events in transfer order —
	// the order their readings must be added in for the float sum to
	// be the per-second array's.
	if tr.Horizon <= 0 {
		audit.TimeBelowFrac = 1
		return audit
	}
	events := make([]uint64, 0, 2*len(tr.Transfers))
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		lo, hi := t.Start, t.End()
		if lo < 0 {
			lo = 0
		}
		if hi > tr.Horizon {
			hi = tr.Horizon
		}
		if hi <= lo {
			hi = lo + 1 // zero-length transfers still occupy their second
			if hi > tr.Horizon {
				continue
			}
		}
		events = append(events, uint64(lo)<<32|uint64(i)<<1)
		if hi < tr.Horizon { // an end at the horizon changes no second below it
			events = append(events, uint64(hi)<<32|uint64(i)<<1|1)
		}
	}
	stats.SortByKeyBits(events, 32, bits.Len64(uint64(tr.Horizon)))

	var active, belowTime int64
	var runSum float64
	var runCnt int64
	// elapse accounts for the seconds [from, to) at the current reading.
	elapse := func(from, to int64) {
		if runCnt > 0 {
			active += to - from
			if runSum/float64(runCnt) < threshold {
				belowTime += to - from
			}
		}
	}
	var prev int64
	for k := 0; k < len(events); {
		second := int64(events[k] >> 32)
		elapse(prev, second)
		prev = second
		var delta float64 // the second's net reading, summed from zero as its array slot was
		for ; k < len(events) && int64(events[k]>>32) == second; k++ {
			cpu := tr.Transfers[uint32(events[k])>>1].ServerCPU
			if events[k]&1 == 0 {
				delta += cpu
				runCnt++
			} else {
				delta -= cpu
				runCnt--
			}
		}
		runSum += delta
	}
	elapse(prev, tr.Horizon)
	if active == 0 {
		audit.TimeBelowFrac = 1
	} else {
		audit.TimeBelowFrac = float64(belowTime) / float64(active)
	}
	return audit
}
