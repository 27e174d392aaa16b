// Package trace holds the in-memory form of the workload: one record per
// unicast transfer, with times expressed in whole seconds since trace
// start (the logs have 1-second resolution, Section 2.3 of the paper).
//
// A Trace is what the characterization pipeline consumes; it is built
// either directly from the generator/simulator or by parsing Windows-
// Media-Server-style log files (package wmslog).
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
)

// ErrBadTrace reports structural problems with trace construction.
var ErrBadTrace = errors.New("trace: bad trace")

// Transfer is one unicast live-object transfer: the result of a start/stop
// request pair by a client (Section 2.2, Transfer Layer).
//
// The row is 56 bytes and holds no pointer: every identity is a dense
// integer, so a trace is one block the garbage collector never scans
// and sorting it moves no pointer. IP and Country index the trace's
// Names; Client and Object are ids in their own right.
type Transfer struct {
	Start     int64 // seconds since trace start
	Duration  int64 // transfer length in seconds
	Bytes     int64
	Bandwidth int64 // average bits/second
	ServerCPU float64
	Client    int32  // dense client index (player ID)
	IP        uint32 // client IP for this session, numbered first-seen
	AS        uint32 // origin autonomous system number
	Country   uint16 // Trace.CountryName
	Object    uint16 // live object index (0-based; the paper has 2)
}

// End returns Start + Duration.
func (t Transfer) End() int64 { return t.Start + t.Duration }

// Names is the id → name table behind Transfer.Country. It may be
// longer than the ids a trace uses (sanitizing drops transfers, not
// names). An IP has no name: its id tells it apart from every other.
type Names struct {
	Countries []string
}

// Trace is a complete workload: transfers sorted by start time over a
// fixed horizon.
type Trace struct {
	Horizon   int64 // trace length in seconds (paper: 28 days)
	Transfers []Transfer
	// Names gives the transfers' Country ids their strings. It is nil
	// for a trace assembled from bare ids (New); a trace derived from
	// another (Sanitize, a what-if copy) shares its parent's.
	Names *Names
}

// CountryName returns the country code behind Country id; an id the
// tables have no name for — nil tables included — is rendered as "#id".
func (n *Names) CountryName(id uint16) string {
	if n != nil && int(id) < len(n.Countries) {
		return n.Countries[id]
	}
	return "#" + strconv.FormatUint(uint64(id), 10)
}

// New builds a trace from transfers, sorting them into the trace order
// (before). The caller keeps its slice: New sorts a copy.
//
//lsm:keep -- simulate.Run, which only benchmark/layers/simulate.go and tests reach, and the tests' traces; ROADMAP item 4a deletes
func New(horizon int64, transfers []Transfer) (*Trace, error) {
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	ts := slices.Clone(transfers)
	sortTraceOrder(ts)
	return &Trace{Horizon: horizon, Transfers: ts}, nil
}

// sortTraceOrder sorts ts into the trace order (before). Transfers
// already in start order — a serve run hands them to its Transfer sink
// so — need only each run of equal starts put in order: one walk
// checks the starts and sorts those runs, and the first start out of
// order sends the whole slice to the full sort (sortByKeys) instead.
// The order is total, so either way the result is the same.
func sortTraceOrder(ts []Transfer) {
	for a := 0; a < len(ts); {
		b := a + 1
		for b < len(ts) && ts[b].Start == ts[a].Start {
			b++
		}
		if b < len(ts) && ts[b].Start < ts[a].Start {
			sortByKeys(ts)
			return
		}
		sortGroup(ts[a:b])
		a = b
	}
}

// sortByKeys sorts ts into the trace order, whatever order it is in. It
// sorts one uint64 a row, (Start − least start) << idxBits | index, with
// slices.Sort — integer compares on 8-byte keys instead of calls to
// before that move 56-byte rows — then moves each row to its place by
// following the permutation's cycles, one row of scratch however long
// the slice, and last puts each group of equal starts in order with
// sortTraceOrder's walk (the index breaks ties in the key, not in the
// trace order).
// When the starts span too much to share 64 bits with the index, it is
// sort.Sort(byStart) outright.
func sortByKeys(ts []Transfer) {
	if len(ts) < 2 {
		return
	}
	lo, hi := ts[0].Start, ts[0].Start
	for i := range ts {
		lo, hi = min(lo, ts[i].Start), max(hi, ts[i].Start)
	}
	idxBits := bits.Len(uint(len(ts) - 1))
	if bits.Len64(uint64(hi)-uint64(lo)) > 64-idxBits {
		sort.Sort(byStart(ts))
		return
	}
	keys := make([]uint64, len(ts))
	for i := range ts {
		keys[i] = (uint64(ts[i].Start)-uint64(lo))<<idxBits | uint64(i)
	}
	slices.Sort(keys)
	// Place k takes the row at index keys[k]&mask. Each cycle of that
	// permutation is walked once; a place filled gets its own index as
	// its key, so the walk skips it after.
	mask := uint64(1)<<idxBits - 1
	for k := range keys {
		from := int(keys[k] & mask)
		if from == k {
			continue
		}
		held := ts[k]
		to := k
		for from != k {
			ts[to] = ts[from]
			keys[to] = uint64(to)
			to, from = from, int(keys[from]&mask)
		}
		ts[to] = held
		keys[to] = uint64(to)
	}
	sortTraceOrder(ts) // in start order now: only the groups are left
}

// groupMax is the largest group of equal starts sortGroup sorts by
// insertion.
const groupMax = 12

// sortGroup puts a group of rows with equal starts in the trace order.
// Such groups are a few rows long — a log's starts are whole seconds —
// so it sorts by insertion and passes only a larger group to
// sort.Sort(byStart), whose interface value costs an allocation a call.
func sortGroup(g []Transfer) {
	if len(g) > groupMax {
		sort.Sort(byStart(g))
		return
	}
	for i := 1; i < len(g); i++ {
		for j := i; j > 0 && before(&g[j], &g[j-1]); j-- {
			g[j], g[j-1] = g[j-1], g[j]
		}
	}
}

// checkHorizon refuses a horizon no trace can have. Downstream sweeps
// hold a second in 31 bits: 68 years is horizon enough.
func checkHorizon(horizon int64) error {
	if horizon <= 0 || horizon > math.MaxInt32 {
		return fmt.Errorf("%w: horizon %d", ErrBadTrace, horizon)
	}
	return nil
}

// before is the trace order: by start, then client, then object — the
// order the characterization reads — and transfers equal on those three
// by every other field (tieBefore). Two transfers tie only when they are
// identical, so the order is total and a trace is a function of the
// multiset of its transfers: however they were split into runs and in
// whatever order they arrived, the sorted result is the same.
func before(a, b *Transfer) bool {
	switch {
	case a.Start != b.Start:
		return a.Start < b.Start
	case a.Client != b.Client:
		return a.Client < b.Client
	case a.Object != b.Object:
		return a.Object < b.Object
	}
	return tieBefore(a, b)
}

// tieBefore orders transfers equal on (Start, Client, Object) by
// Duration, Bytes, Bandwidth, ServerCPU, IP, AS and Country, and last by
// the CPU reading's bits, which tells apart the readings no comparison
// can (±0, NaN payloads; cmp.Compare puts NaNs first).
func tieBefore(a, b *Transfer) bool {
	switch {
	case a.Duration != b.Duration:
		return a.Duration < b.Duration
	case a.Bytes != b.Bytes:
		return a.Bytes < b.Bytes
	case a.Bandwidth != b.Bandwidth:
		return a.Bandwidth < b.Bandwidth
	}
	if c := cmp.Compare(a.ServerCPU, b.ServerCPU); c != 0 {
		return c < 0
	}
	switch {
	case a.IP != b.IP:
		return a.IP < b.IP
	case a.AS != b.AS:
		return a.AS < b.AS
	case a.Country != b.Country:
		return a.Country < b.Country
	}
	return math.Float64bits(a.ServerCPU) < math.Float64bits(b.ServerCPU)
}

// byStart sorts by the trace order, comparing rows in place by index.
// A full sort goes by sortByKeys, which leaves byStart only the large
// groups of equal starts (sortGroup) and the slices whose starts do
// not fit its keys.
type byStart []Transfer

func (s byStart) Len() int           { return len(s) }
func (s byStart) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s byStart) Less(i, j int) bool { return before(&s[i], &s[j]) }

// NumTransfers returns the number of transfers.
//
//lsm:keep -- benchmark/layers probes, observeTrace and the tests; ROADMAP item 4a deletes
func (tr *Trace) NumTransfers() int { return len(tr.Transfers) }

// TotalBytes sums bytes served across all transfers.
//
//lsm:keep -- test oracle: the simulate, trace, analyze, core and integration tests
func (tr *Trace) TotalBytes() int64 {
	var sum int64
	for i := range tr.Transfers {
		sum += tr.Transfers[i].Bytes
	}
	return sum
}
