package trace

import (
	"bytes"
	"hash/maphash"
	"math"
)

// idTable numbers the distinct values of one identity column — player
// IDs or IPs, tens of thousands to a million of them — 0, 1, 2, … in the
// order they are added, and holds no string per value: the values lie
// end to end in one byte arena, value o between ends[o-1] and ends[o].
// The index is open-addressed (linear probing, at most half full), each
// slot a value's hash beside 1 + its ordinal, so a probe compares the
// stored hash before it reads the arena and a regrow re-places slots
// without reading a value. Nothing in it holds a pointer into the heap
// but its three slices, so the collector never scans its contents.
type idTable struct {
	arena []byte
	ends  []uint32 // ends[o] is where value o ends in arena
	slots []uint64 // hash<<32 | 1 + ordinal, 0 for an empty slot; a power of two long
}

// idSeed keys the tables' hash function. The hash only decides where in
// a table a value sits; ordinals are handed out in arrival order, so
// nothing a caller can observe depends on it.
var idSeed = maphash.MakeSeed()

func newIDTable() idTable { return idTable{slots: make([]uint64, 1024)} }

// len returns the number of values held.
func (t *idTable) len() int { return len(t.ends) }

// value returns value o's bytes, which alias the arena.
func (t *idTable) value(o uint32) []byte {
	from := uint32(0)
	if o > 0 {
		from = t.ends[o-1]
	}
	return t.arena[from:t.ends[o]]
}

// ordinal returns b's ordinal, adding a copy of b as the next value if
// the table does not hold it. ok is false when the arena would pass
// 4 GiB, where an end no longer fits its uint32.
//
//lsm:hotpath
func (t *idTable) ordinal(b []byte) (o uint32, ok bool) {
	hash := uint32(maphash.Bytes(idSeed, b))
	mask := uint32(len(t.slots) - 1)
	i := hash & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if s := t.slots[i]; uint32(s>>32) == hash && bytes.Equal(t.value(uint32(s)-1), b) {
			return uint32(s) - 1, true
		}
	}
	if uint64(len(t.arena))+uint64(len(b)) > math.MaxUint32 {
		return 0, false
	}
	o = uint32(len(t.ends))
	t.arena = append(t.arena, b...)
	t.ends = append(t.ends, uint32(len(t.arena)))
	t.slots[i] = uint64(hash)<<32 | uint64(o+1)
	if 2*len(t.ends) > len(t.slots) {
		t.regrow()
	}
	return o, true
}

// regrow doubles the index, re-placing every slot; no value is read.
func (t *idTable) regrow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// identities numbers a line's c-ip and c-playerid together, the way the
// sequential pass meets them: the player through its table, unless it
// is the player of the line before; the IP by comparing it with the one
// that player's latest line carried, and through the IP table only when
// the player is new or has moved.
type identities struct {
	players, ips idTable
	// playerIP is indexed by player ordinal: 1 + the ordinal of the IP
	// that player's latest line carried.
	playerIP []uint32
	last     uint32 // the ordinal of the player of the line before
	any      bool   // some line has been numbered: last is set
}

// client returns the ordinals of one line's c-ip and c-playerid; ok is
// false when a table's arena is full.
//
//lsm:hotpath
func (d *identities) client(ip, pid []byte) (ipOrd, pidOrd uint32, ok bool) {
	p := d.last
	if !d.any || !bytes.Equal(pid, d.players.value(p)) {
		if p, ok = d.players.ordinal(pid); !ok {
			return 0, 0, false
		}
		if int(p) == len(d.playerIP) {
			d.playerIP = append(d.playerIP, 0)
		}
		d.last, d.any = p, true
	}
	at := d.playerIP[p]
	if at == 0 || !bytes.Equal(ip, d.ips.value(at-1)) {
		o, ok := d.ips.ordinal(ip)
		if !ok {
			return 0, 0, false
		}
		at = o + 1
		d.playerIP[p] = at
	}
	return at - 1, p, true
}
