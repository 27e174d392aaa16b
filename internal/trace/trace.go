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
	"slices"
	"sort"
)

// ErrBadTrace reports structural problems with trace construction.
var ErrBadTrace = errors.New("trace: bad trace")

// Transfer is one unicast live-object transfer: the result of a start/stop
// request pair by a client (Section 2.2, Transfer Layer).
type Transfer struct {
	Client    int    // dense client index (player ID)
	IP        string // client IP for this session
	AS        int    // origin autonomous system (1-based)
	Country   string
	Object    int   // live object index (0-based; the paper has 2)
	Start     int64 // seconds since trace start
	Duration  int64 // transfer length in seconds
	Bytes     int64
	Bandwidth int64 // average bits/second
	ServerCPU float64
}

// End returns Start + Duration.
func (t Transfer) End() int64 { return t.Start + t.Duration }

// Trace is a complete workload: transfers sorted by start time over a
// fixed horizon.
type Trace struct {
	Horizon   int64 // trace length in seconds (paper: 28 days)
	Transfers []Transfer

	byClient *ClientIndex // built on first use
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
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadTrace, horizon)
	}
	sort.Sort(byStart(ts))
	return &Trace{Horizon: horizon, Transfers: ts}, nil
}

// byStart is the trace order. It compares by index: a Transfer is 96
// bytes, and handing two of them by value to a comparison function
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
	ids   []int   // ids[k] is slot k's client id, ascending
	off   []int   // slot k's row is order[off[k]:off[k+1]]
	order []int   // transfer indices grouped by slot
	slot  []int32 // slot[i] is the slot of transfer i
}

// Len returns the number of distinct clients.
func (ci *ClientIndex) Len() int { return len(ci.ids) }

// Client returns the client id of slot k.
func (ci *ClientIndex) Client(k int) int { return ci.ids[k] }

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
func denseSpan(lo, hi, n int) bool {
	return uint64(hi)-uint64(lo) <= uint64(8*n)+1<<20
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
		table := make([]int32, hi-lo+1)
		for i := range ts {
			table[ts[i].Client-lo] = 1
		}
		for v, seen := range table {
			if seen != 0 {
				table[v] = int32(len(ci.ids))
				ci.ids = append(ci.ids, lo+v)
			}
		}
		for i := range ts {
			ci.slot[i] = table[ts[i].Client-lo]
		}
	} else {
		ci.ids = make([]int, n)
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

// DistinctIPs counts distinct client IPs in the trace.
func (tr *Trace) DistinctIPs() int {
	set := make(map[string]struct{})
	for i := range tr.Transfers {
		set[tr.Transfers[i].IP] = struct{}{}
	}
	return len(set)
}

// DistinctAS counts distinct origin ASes.
func (tr *Trace) DistinctAS() int {
	set := make(map[int]struct{})
	for i := range tr.Transfers {
		set[tr.Transfers[i].AS] = struct{}{}
	}
	return len(set)
}

// DistinctObjects counts distinct live objects.
func (tr *Trace) DistinctObjects() int {
	set := make(map[int]struct{})
	for i := range tr.Transfers {
		set[tr.Transfers[i].Object] = struct{}{}
	}
	return len(set)
}
