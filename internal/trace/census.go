package trace

// Census is the population count of a trace — who the transfers came
// from and what they asked for: the distinct counts of Table 1 and the
// per-AS, per-country and per-object tallies behind Figure 2, all from
// one walk.
type Census struct {
	// IPs is the number of distinct client IPs.
	IPs int
	// ASTransfers and ASIPs hold, per distinct AS in the order the walk
	// met them, its transfers and its distinct client IPs. An IP seen
	// under two ASes counts once for each.
	ASTransfers []int
	ASIPs       []int
	// CountryTransfers and ObjectTransfers are indexed by Country and
	// Object id; an id no transfer carries counts zero.
	CountryTransfers []int
	ObjectTransfers  []int
}

// asDirectMax bounds the direct-address half of the AS remap: 2-byte
// AS numbers — all there were in 2002, and all the generator hands
// out — index a slice, the 4-byte rest goes through a map.
const asDirectMax = 1 << 16

// upTo extends s with zero elements until index i exists.
func upTo[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// Census counts the trace's population: a CensusCounter walked over
// its transfers.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func (tr *Trace) Census() *Census {
	ips, countries := 0, 0 // the ids the per-IP and per-country tables span
	for i := range tr.Transfers {
		ips = max(ips, int(tr.Transfers[i].IP)+1)
	}
	if tr.Names != nil {
		countries = len(tr.Names.Countries)
	}
	cc := NewCensusCounter(ips, countries)
	for i := range tr.Transfers {
		cc.Add(&tr.Transfers[i])
	}
	return cc.Census()
}

// CensusCounter is a Census taken one transfer at a time, in any order
// of transfers that keeps the order their ASes are first met in — the
// trace order for a trace's own Census. Everything is indexed by id:
// AS numbers, sparse in 32 bits, are remapped to dense indices in
// first-seen order; an IP's distinctness within its AS is one slot
// holding the first AS the IP was seen under, and only an IP that turns
// up under a second AS — a renumbered block, a multihomed client —
// costs a set entry. No name is read.
type CensusCounter struct {
	c        Census
	asDirect []int32         // 1 + dense index of an AS number below asDirectMax
	asSparse map[uint32]int  // dense index of the others
	ipAS     []uint32        // per IP id: 1 + dense index of the first AS it was seen under
	moved    map[uint64]bool // (IP, AS) pairs beyond an IP's first AS
}

// NewCensusCounter returns an empty counter with its per-IP and
// per-country tables sized for ips and countries ids; ids beyond them
// are counted all the same.
func NewCensusCounter(ips, countries int) *CensusCounter {
	cc := &CensusCounter{asSparse: make(map[uint32]int, 8), moved: make(map[uint64]bool, 8)}
	if ips > 0 {
		cc.ipAS = make([]uint32, ips)
	}
	if countries > 0 {
		cc.c.CountryTransfers = make([]int, countries)
	}
	return cc
}

// Add counts one transfer.
//
//lsm:hotpath
func (cc *CensusCounter) Add(t *Transfer) {
	c := &cc.c
	a := len(c.ASTransfers) // t.AS's dense index; a new AS takes the next one
	if t.AS < asDirectMax {
		cc.asDirect = upTo(cc.asDirect, int(t.AS))
		if cc.asDirect[t.AS] == 0 {
			cc.asDirect[t.AS] = int32(a) + 1
		}
		a = int(cc.asDirect[t.AS]) - 1
	} else if known, ok := cc.asSparse[t.AS]; ok {
		a = known
	} else {
		cc.asSparse[t.AS] = a
	}
	if a == len(c.ASTransfers) {
		c.ASTransfers = append(c.ASTransfers, 0)
		c.ASIPs = append(c.ASIPs, 0)
	}
	c.ASTransfers[a]++

	cc.ipAS = upTo(cc.ipAS, int(t.IP))
	switch first := cc.ipAS[t.IP]; {
	case first == 0:
		cc.ipAS[t.IP] = uint32(a) + 1
		c.IPs++
		c.ASIPs[a]++
	case first != uint32(a)+1:
		if pair := uint64(t.IP)<<32 | uint64(a); !cc.moved[pair] {
			cc.moved[pair] = true
			c.ASIPs[a]++
		}
	}

	c.CountryTransfers = upTo(c.CountryTransfers, int(t.Country))
	c.CountryTransfers[t.Country]++
	c.ObjectTransfers = upTo(c.ObjectTransfers, int(t.Object))
	c.ObjectTransfers[t.Object]++
}

// Census returns the count of the transfers added so far. It is the
// counter's own: adding more transfers changes it.
func (cc *CensusCounter) Census() *Census { return &cc.c }

// DistinctIPs counts distinct client IPs in the trace.
func (tr *Trace) DistinctIPs() int { return tr.Census().IPs } //lsm:keep -- test oracle: the integration and online tests

// DistinctAS counts distinct origin ASes.
func (tr *Trace) DistinctAS() int { return len(tr.Census().ASTransfers) } //lsm:keep -- test oracle: the integration and online tests

// DistinctObjects counts distinct live objects.
//
//lsm:keep -- test oracle: trace, analyze and core tests
func (tr *Trace) DistinctObjects() int {
	n := 0
	for _, transfers := range tr.Census().ObjectTransfers {
		if transfers > 0 {
			n++
		}
	}
	return n
}
