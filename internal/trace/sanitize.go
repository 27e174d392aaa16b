package trace

import (
	"fmt"
	"math"

	"repro/internal/heapx"
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
//
//lsm:keep -- benchmark/layers/trace.go and pipeline.go probes, and the tests' reference; ROADMAP item 4a deletes
func (tr *Trace) Sanitize() (*Trace, SanitizeReport) {
	out := &Trace{Horizon: tr.Horizon, Transfers: tr.Transfers, Names: tr.Names}
	report := out.sanitizeInto(make([]Transfer, 0, len(tr.Transfers)))
	return out, report
}

// sanitizeInto filters tr's transfers into kept, which becomes tr's
// slice. kept may be tr.Transfers[:0] — an owner compacting its trace
// in place: a kept transfer only ever moves down.
func (tr *Trace) sanitizeInto(kept []Transfer) SanitizeReport {
	report := SanitizeReport{}
	for i := range tr.Transfers {
		if report.keep(&tr.Transfers[i], tr.Horizon) {
			kept = append(kept, tr.Transfers[i])
		}
	}
	tr.Transfers = kept
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

// Auditor is the overload audit taken one transfer at a time, fed a
// trace's transfers in the trace order. Each transfer contributes its
// logged CPU reading to every second it spans (a faithful stand-in for
// the paper's per-second averaging of CPU samples).
//
// It sweeps events, not seconds: a start adds the transfer's reading to
// the running sum, an end takes it away, and between two event seconds
// every second reads the same runSum / runCnt. A second's events are
// summed from zero in transfer order, as a per-second array's slot
// would add them, before runSum takes them. An end waits in a monotone
// queue keyed by its second above the transfer's sequence number, so a
// second's ends leave in transfer order and ahead of its starts, whose
// transfers all come later.
type Auditor struct {
	horizon   int64
	threshold float64
	n, below  int // transfers added, and those read below the threshold

	ends heapx.Radix // pending ends: second<<32 | sequence → slot of cpu
	cpu  []float64   // each pending end's reading, by slot
	free []int32     // the slots of cpu no pending end holds

	second            int64   // the second whose events are being summed
	delta             float64 // their net reading so far
	runSum            float64
	runCnt            int64 // the transfers spanning the current second
	active, belowTime int64 // seconds spanned, and those read below the threshold
}

// NewAuditor returns an auditor for a trace of horizon seconds at a CPU
// threshold in percent.
func NewAuditor(horizon int64, threshold float64) *Auditor {
	return &Auditor{horizon: horizon, threshold: threshold}
}

// Add takes the next transfer in the trace order.
func (a *Auditor) Add(t *Transfer) {
	seq := uint64(a.n)
	a.n++
	if t.ServerCPU < a.threshold {
		a.below++
	}
	lo, hi := max(t.Start, 0), min(t.End(), a.horizon)
	if hi <= lo {
		hi = lo + 1 // zero-length transfers still occupy their second
		if hi > a.horizon {
			return
		}
	}
	a.advance(lo)
	a.delta += t.ServerCPU
	a.runCnt++
	if hi < a.horizon { // an end at the horizon changes no second below it
		var slot int32
		if k := len(a.free); k > 0 {
			slot, a.free = a.free[k-1], a.free[:k-1]
		} else {
			slot, a.cpu = int32(len(a.cpu)), append(a.cpu, 0)
		}
		a.cpu[slot] = t.ServerCPU
		a.ends.Push(uint64(hi)<<32|seq, slot)
	}
}

// advance moves the sweep on to second s, through every pending end up
// to s.
func (a *Auditor) advance(s int64) {
	for {
		key, slot, ok := a.ends.PopAtMost(uint64(s)<<32 | math.MaxUint32)
		if !ok {
			break
		}
		a.moveTo(int64(key >> 32))
		a.delta -= a.cpu[slot]
		a.runCnt--
		a.free = append(a.free, slot)
	}
	a.moveTo(s)
}

// moveTo closes the current second if s is a later one, and accounts
// for the seconds up to s, which all read the running sum.
func (a *Auditor) moveTo(s int64) {
	if s == a.second {
		return
	}
	a.runSum += a.delta
	a.delta = 0
	if a.runCnt > 0 {
		a.active += s - a.second
		if a.runSum/float64(a.runCnt) < a.threshold {
			a.belowTime += s - a.second
		}
	}
	a.second = s
}

// Audit finishes the sweep over the transfers added and returns the
// audit. The auditor is used up.
func (a *Auditor) Audit() OverloadAudit {
	audit := OverloadAudit{Threshold: a.threshold, TimeBelowFrac: 1, TransferBelowFrac: 1}
	if a.n == 0 {
		return audit
	}
	audit.TransferBelowFrac = float64(a.below) / float64(a.n)
	a.advance(a.horizon)
	if a.active > 0 {
		audit.TimeBelowFrac = float64(a.belowTime) / float64(a.active)
	}
	return audit
}
