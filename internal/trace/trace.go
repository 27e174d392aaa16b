// Package trace holds the in-memory form of the workload: one record per
// unicast transfer, with times expressed in whole seconds since trace
// start (the logs have 1-second resolution, Section 2.3 of the paper).
//
// A Trace is what the characterization pipeline consumes; it is built
// either directly from the generator/simulator or by parsing Windows-
// Media-Server-style log files (package wmslog).
package trace

import (
	"errors"
	"fmt"
	"math"
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
	IP        uint32 // client IP for this session: Trace.IPName
	AS        uint32 // origin autonomous system number
	Country   uint16 // Trace.CountryName
	Object    uint16 // live object index (0-based; the paper has 2)
}

// End returns Start + Duration.
func (t Transfer) End() int64 { return t.Start + t.Duration }

// Names are the id → name tables behind Transfer.IP and
// Transfer.Country. A table may be longer than the ids a trace uses
// (sanitizing drops transfers, not names).
type Names struct {
	IPs       []string
	Countries []string
}

// Trace is a complete workload: transfers sorted by start time over a
// fixed horizon.
type Trace struct {
	Horizon   int64 // trace length in seconds (paper: 28 days)
	Transfers []Transfer
	// Names gives the transfers' IP and Country ids their strings. It is
	// nil for a trace assembled from bare ids (New); a trace derived
	// from another (Sanitize, a what-if copy) shares its parent's.
	Names *Names

	byClient *ClientIndex // built on first use
}

// IPName returns the address behind IP id; an id the trace has no name
// for is rendered as "#id".
func (tr *Trace) IPName(id uint32) string {
	if tr.Names != nil && int(id) < len(tr.Names.IPs) {
		return tr.Names.IPs[id]
	}
	return "#" + strconv.FormatUint(uint64(id), 10)
}

// CountryName returns the country code behind Country id; an id the
// trace has no name for is rendered as "#id".
func (tr *Trace) CountryName(id uint16) string {
	if tr.Names != nil && int(id) < len(tr.Names.Countries) {
		return tr.Names.Countries[id]
	}
	return "#" + strconv.FormatUint(uint64(id), 10)
}

// New builds a trace from transfers, sorting them by start time (ties by
// client then object, for determinism). The caller keeps its slice: New
// sorts a copy.
func New(horizon int64, transfers []Transfer) (*Trace, error) {
	return newOwned(horizon, slices.Clone(transfers))
}

// newOwned is New for a slice the caller hands over: it is sorted in
// place and becomes the trace's.
func newOwned(horizon int64, ts []Transfer) (*Trace, error) {
	// Downstream sweeps hold a second in 31 bits: 68 years is horizon
	// enough.
	if horizon <= 0 || horizon > math.MaxInt32 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadTrace, horizon)
	}
	sort.Sort(byStart(ts))
	return &Trace{Horizon: horizon, Transfers: ts}, nil
}

// byStart is the trace order. It compares by index: handing two
// 56-byte transfers by value to a comparison function
// (slices.SortFunc) costs more than the comparison.
type byStart []Transfer

func (s byStart) Len() int      { return len(s) }
func (s byStart) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s byStart) Less(i, j int) bool {
	a, b := &s[i], &s[j]
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Client != b.Client {
		return a.Client < b.Client
	}
	return a.Object < b.Object
}

// NumTransfers returns the number of transfers.
func (tr *Trace) NumTransfers() int { return len(tr.Transfers) }

// NumClients returns the number of distinct clients.
func (tr *Trace) NumClients() int { return tr.ByClient().Len() }

// ByClient returns the per-client index of the trace's transfers. It is
// computed once and cached.
func (tr *Trace) ByClient() *ClientIndex {
	if tr.byClient == nil {
		tr.byClient = newClientIndex(tr.Transfers)
	}
	return tr.byClient
}

// ClientIndex groups a trace's transfer indices by client in compressed
// sparse row form. The distinct client ids are numbered 0..Len()-1 in
// ascending id order; slot k's row is the indices of that client's
// transfers in trace (start) order. Every row is a window onto one
// shared array, so the index costs two allocations of the trace's
// length however many clients there are.
type ClientIndex struct {
	ids   []int32 // ids[k] is slot k's client id, ascending
	off   []int   // slot k's row is order[off[k]:off[k+1]]
	order []int   // transfer indices grouped by slot
	slot  []int32 // slot[i] is the slot of transfer i
}

// Len returns the number of distinct clients.
func (ci *ClientIndex) Len() int { return len(ci.ids) }

// Client returns the client id of slot k.
func (ci *ClientIndex) Client(k int) int { return int(ci.ids[k]) }

// Transfers returns slot k's transfer indices in start order. The slice
// is shared with the index (and with every sessions.Session cut from
// it): treat it as read-only. Its capacity is clipped, so an append
// copies instead of running into the next client's row.
func (ci *ClientIndex) Transfers(k int) []int {
	return ci.order[ci.off[k]:ci.off[k+1]:ci.off[k+1]]
}

// Slot returns the slot of the client that made transfer i.
func (ci *ClientIndex) Slot(i int) int { return int(ci.slot[i]) }

// denseSpan reports whether client ids spanning [lo, hi] over n
// transfers are compact enough for a direct-address table: at most a
// few table entries per transfer, or a few MB outright (a short trace
// of a large population).
func denseSpan(lo, hi int32, n int) bool {
	return int64(hi)-int64(lo) <= int64(8*n)+1<<20
}

func newClientIndex(ts []Transfer) *ClientIndex {
	n := len(ts)
	ci := &ClientIndex{order: make([]int, n), slot: make([]int32, n)}
	if n == 0 {
		ci.off = []int{0}
		return ci
	}
	lo, hi := ts[0].Client, ts[0].Client
	for i := range ts {
		lo, hi = min(lo, ts[i].Client), max(hi, ts[i].Client)
	}
	if denseSpan(lo, hi, n) {
		// Generator, server and FromEntries all hand out dense ids.
		base := int64(lo)
		table := make([]int32, int64(hi)-base+1)
		for i := range ts {
			table[int64(ts[i].Client)-base] = 1
		}
		for v, seen := range table {
			if seen != 0 {
				table[v] = int32(len(ci.ids))
				ci.ids = append(ci.ids, int32(base+int64(v)))
			}
		}
		for i := range ts {
			ci.slot[i] = table[int64(ts[i].Client)-base]
		}
	} else {
		ci.ids = make([]int32, n)
		for i := range ts {
			ci.ids[i] = ts[i].Client
		}
		slices.Sort(ci.ids)
		ci.ids = slices.Compact(ci.ids)
		for i := range ts {
			k, _ := slices.BinarySearch(ci.ids, ts[i].Client)
			ci.slot[i] = int32(k)
		}
	}

	// Counting sort of the transfer indices by slot; stable, so each row
	// keeps trace order.
	ci.off = make([]int, len(ci.ids)+1)
	for _, k := range ci.slot {
		ci.off[k+1]++
	}
	for k := range ci.ids {
		ci.off[k+1] += ci.off[k]
	}
	next := slices.Clone(ci.off[:len(ci.ids)])
	for i, k := range ci.slot {
		ci.order[next[k]] = i
		next[k]++
	}
	return ci
}

// TotalBytes sums bytes served across all transfers.
func (tr *Trace) TotalBytes() int64 {
	var sum int64
	for i := range tr.Transfers {
		sum += tr.Transfers[i].Bytes
	}
	return sum
}
