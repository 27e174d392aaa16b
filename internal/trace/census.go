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

// Census counts the trace's population. Everything is indexed by id:
// AS numbers, sparse in 32 bits, are first remapped to dense indices in
// first-seen order; an IP's distinctness within its AS is one slot
// holding the first AS the IP was seen under, and only an IP that turns
// up under a second AS — a renumbered block, a multihomed client —
// costs a set entry. No name is read.
//
//lsm:hotpath
func (tr *Trace) Census() *Census {
	c := &Census{}
	var (
		asDirect []int32                    // 1 + dense index of an AS number below asDirectMax
		asSparse = make(map[uint32]int, 8)  // dense index of the others
		ipAS     []uint32                   // per IP id: 1 + dense index of the first AS it was seen under
		moved    = make(map[uint64]bool, 8) // (IP, AS) pairs beyond an IP's first AS
	)
	if tr.Names != nil {
		ipAS = make([]uint32, len(tr.Names.IPs))
		c.CountryTransfers = make([]int, len(tr.Names.Countries))
	}
	for i := range tr.Transfers {
		t := &tr.Transfers[i]

		a := len(c.ASTransfers) // t.AS's dense index; a new AS takes the next one
		if t.AS < asDirectMax {
			asDirect = upTo(asDirect, int(t.AS))
			if asDirect[t.AS] == 0 {
				asDirect[t.AS] = int32(a) + 1
			}
			a = int(asDirect[t.AS]) - 1
		} else if known, ok := asSparse[t.AS]; ok {
			a = known
		} else {
			asSparse[t.AS] = a
		}
		if a == len(c.ASTransfers) {
			c.ASTransfers = append(c.ASTransfers, 0)
			c.ASIPs = append(c.ASIPs, 0)
		}
		c.ASTransfers[a]++

		ipAS = upTo(ipAS, int(t.IP))
		switch first := ipAS[t.IP]; {
		case first == 0:
			ipAS[t.IP] = uint32(a) + 1
			c.IPs++
			c.ASIPs[a]++
		case first != uint32(a)+1:
			if pair := uint64(t.IP)<<32 | uint64(a); !moved[pair] {
				moved[pair] = true
				c.ASIPs[a]++
			}
		}

		c.CountryTransfers = upTo(c.CountryTransfers, int(t.Country))
		c.CountryTransfers[t.Country]++
		c.ObjectTransfers = upTo(c.ObjectTransfers, int(t.Object))
		c.ObjectTransfers[t.Object]++
	}
	return c
}

// DistinctIPs counts distinct client IPs in the trace.
func (tr *Trace) DistinctIPs() int { return tr.Census().IPs }

// DistinctAS counts distinct origin ASes.
func (tr *Trace) DistinctAS() int { return len(tr.Census().ASTransfers) }

// DistinctObjects counts distinct live objects.
func (tr *Trace) DistinctObjects() int {
	n := 0
	for _, transfers := range tr.Census().ObjectTransfers {
		if transfers > 0 {
			n++
		}
	}
	return n
}
