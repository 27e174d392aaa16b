package wmslog

import (
	"hash/maphash"
	"strings"
)

// Column names one of the four string columns that identify who asked
// for what from where — the columns an Interner numbers.
type Column int

const (
	ColPlayer  Column = iota // c-playerid
	ColIP                    // c-ip
	ColURI                   // cs-uri-stem
	ColCountry               // s-country
	NumColumns

	// The remaining interned columns are deduplicated but their
	// ordinals are nobody's business.
	colOS       = NumColumns
	colCPU      = NumColumns + 1
	numInterned = NumColumns + 2
)

// Ordinals holds, per Column, the ordinal an Interner gave a value:
// its position among the distinct values of that column in the order
// the Interner first met them.
type Ordinals [NumColumns]uint32

// Interner deduplicates the string fields of entries scanned from text
// logs and numbers the identity columns. An access log repeats its
// strings heavily — every transfer of a player repeats the player ID
// and usually the IP, and OS, CPU, URI and country come from small
// sets — so a scan that hands out one canonical string per distinct
// value allocates per distinct value, not per entry, and a consumer
// that reads the value's ordinal instead of the value (Ordinals) never
// hashes a string the scan has already looked up. (A binary log's
// strings are dictionary-coded, one allocation per distinct value per
// file already; it bypasses the tables until someone asks for
// ordinals.)
//
// Each column has its own table. OS, CPU, URI and country are searched
// linearly until they outgrow linearMax values; the player table is
// hashed, and remembers the IP each player was last seen under, so in
// steady state a line costs one string hash: its player ID, and not
// even that when the previous line was the same player's.
//
// The tables grow with the number of distinct values, never with the
// number of entries: the referer column, the one field a tagged serve
// log makes unique per entry (SessionRef), bypasses them. An Interner
// is not safe for concurrent use; a parallel ingest gives each worker
// its own. The nil *Interner is valid and interns nothing.
type Interner struct {
	cols [numInterned]table
	// last is, per column, the value most recently handed out: the next
	// request for that value's ordinal is one string compare, usually of
	// a string with itself.
	last [numInterned]ref
	// playerIP is indexed by player ordinal (and grown on demand): the
	// IP that player's latest line carried.
	playerIP []ref
}

// ref is a table entry as something outside the table remembers it.
// The zero ref remembers nothing.
type ref struct {
	name string
	ord  uint32
	set  bool
}

func (r *ref) is(s string) bool { return r.set && r.name == s }

// linearMax is the size up to which a table is searched linearly: a
// handful of short string compares beats a hash.
const linearMax = 16

// hashSeed keys the tables' hash function. The hash only decides where
// in a table a value sits; ordinals are handed out in arrival order, so
// nothing a caller can observe depends on it.
var hashSeed = maphash.MakeSeed()

// table numbers the distinct values of one column 0, 1, 2, … in the
// order they are added. A small table is a list; a large one adds an
// open-addressed index of ordinals (linear probing, at most half full),
// which unlike a map[string]uint32 finds-or-places a value with one
// hash, keeps four bytes per slot where a map keeps a string header,
// and compares a stored hash before it touches a name.
type table struct {
	names  []string
	hashes []uint32 // hashes[o] is names[o]'s hash; kept only once the table is indexed
	slots  []uint32 // 1 + ordinal, 0 for an empty slot; a power of two long; nil while the table is a list
}

// find returns the ordinal of b, if the table holds it, and b's hash
// for add.
//
//lsm:hotpath
func (t *table) find(b []byte) (o, hash uint32, ok bool) {
	if t.slots == nil {
		for i, v := range t.names {
			if v == string(b) {
				return uint32(i), 0, true
			}
		}
		return 0, 0, false
	}
	hash = uint32(maphash.Bytes(hashSeed, b))
	mask := uint32(len(t.slots) - 1)
	for i := hash & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if o := t.slots[i] - 1; t.hashes[o] == hash && t.names[o] == string(b) {
			return o, hash, true
		}
	}
	return 0, hash, false
}

// findString is find for a value that is already a string.
//
//lsm:hotpath
func (t *table) findString(s string) (o, hash uint32, ok bool) {
	if t.slots == nil {
		for i, v := range t.names {
			if v == s {
				return uint32(i), 0, true
			}
		}
		return 0, 0, false
	}
	hash = uint32(maphash.String(hashSeed, s))
	mask := uint32(len(t.slots) - 1)
	for i := hash & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if o := t.slots[i] - 1; t.hashes[o] == hash && t.names[o] == s {
			return o, hash, true
		}
	}
	return 0, hash, false
}

// add appends s, which find has just missed with the given hash and
// which the table keeps, and returns its ordinal.
func (t *table) add(s string, hash uint32) uint32 {
	o := uint32(len(t.names))
	t.names = append(t.names, s)
	switch {
	case t.slots != nil:
		t.hashes = append(t.hashes, hash)
		if 2*len(t.names) > len(t.slots) {
			t.index(2 * len(t.slots))
		} else {
			t.place(o)
		}
	case len(t.names) > linearMax:
		// Outgrew the list: hash what it holds.
		t.hashes = make([]uint32, len(t.names), 4*linearMax)
		for i, v := range t.names {
			t.hashes[i] = uint32(maphash.String(hashSeed, v))
		}
		t.index(8 * linearMax)
	}
	return o
}

// index rebuilds the slot array at the given size from the stored
// hashes; no name is read.
func (t *table) index(size int) {
	t.slots = make([]uint32, size)
	for o := range t.names {
		t.place(uint32(o))
	}
}

// place puts ordinal o in the first free slot of its probe sequence.
func (t *table) place(o uint32) {
	mask := uint32(len(t.slots) - 1)
	i := t.hashes[o] & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = o + 1
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{}
	// Players and IPs number in the tens of thousands: indexed from the
	// start. (Presizing them further bought no time and cost resident
	// memory — EXPERIMENTS.md "PR 21".)
	in.cols[ColPlayer].index(1024)
	in.cols[ColIP].index(1024)
	return in
}

// Names returns column c's values by ordinal. The slice is the
// interner's own: read it, and only until the next value is added.
func (in *Interner) Names(c Column) []string { return in.cols[c].names }

// intern returns b as a string of column c: prev when b still holds
// the value the reused entry carried for this field on the previous
// record (no lookup), the canonical instance when the table knows it,
// a fresh allocation — added to the table — otherwise.
//
//lsm:hotpath
func (in *Interner) intern(c Column, b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	if in == nil {
		return string(b)
	}
	t := &in.cols[c]
	o, hash, ok := t.find(b)
	if !ok {
		o = t.add(string(b), hash)
	}
	in.last[c] = ref{name: t.names[o], ord: o, set: true}
	return t.names[o]
}

// client interns the c-ip and c-playerid columns of one line together:
// the player through its hashed table (unless the line repeats the
// previous one's), the IP by comparing it with the one that player's
// record holds, and through the IP table only when the player is new
// or has moved.
//
//lsm:hotpath
func (in *Interner) client(ip, pid []byte, prevIP, prevPid string) (string, string) {
	if in == nil {
		return in.intern(ColIP, ip, prevIP), in.intern(ColPlayer, pid, prevPid)
	}
	player := prevPid
	if string(pid) != prevPid {
		player = in.intern(ColPlayer, pid, "")
	}
	at := in.ipOf(in.last[ColPlayer].ord)
	if !at.set || string(ip) != at.name {
		in.intern(ColIP, ip, "")
		*at = in.last[ColIP]
	}
	in.last[ColIP] = *at
	return at.name, player
}

// ipOf returns player p's IP record.
func (in *Interner) ipOf(p uint32) *ref {
	if int(p) >= len(in.playerIP) {
		in.playerIP = append(in.playerIP, make([]ref, int(p)+1-len(in.playerIP))...)
	}
	return &in.playerIP[p]
}

// internString is intern for a value that is already a string (the
// tolerant splitter's columns, which alias the whole line): the
// canonical instance, so the entry does not pin the line.
func (in *Interner) internString(c Column, s string) string {
	if in == nil {
		return s
	}
	t := &in.cols[c]
	o, hash, ok := t.findString(s)
	if !ok {
		o = t.add(strings.Clone(s), hash)
	}
	in.last[c] = ref{name: t.names[o], ord: o, set: true}
	return t.names[o]
}

// Ordinals returns the ordinals of e's player ID, IP, URI and country,
// giving one to any value the interner has not met. It is a function
// of the entry alone — equal strings get equal ordinals, different
// strings different ones, whoever decoded e — but for the entry a Scan
// through this interner has just handed its callback it is four
// compares of a string with itself: the scan left the ordinals behind.
// Any other entry (one decoded from a binary log's dictionary, one
// from a materialized slice) is looked up, the IP in its player's
// record first; the interner then keeps e's strings.
//
//lsm:hotpath
func (in *Interner) Ordinals(e *Entry) Ordinals {
	var ord Ordinals
	ord[ColPlayer] = in.Ordinal(ColPlayer, e.PlayerID)
	if !in.last[ColIP].is(e.ClientIP) {
		if at := in.ipOf(ord[ColPlayer]); at.is(e.ClientIP) {
			in.last[ColIP] = *at
		} else {
			in.Ordinal(ColIP, e.ClientIP)
			*at = in.last[ColIP]
		}
	}
	ord[ColIP] = in.last[ColIP].ord
	ord[ColURI] = in.Ordinal(ColURI, e.URIStem)
	ord[ColCountry] = in.Ordinal(ColCountry, e.Country)
	return ord
}

// Ordinal returns s's ordinal in column c: the last one handed out
// when that is s, a lookup otherwise — and for a value the column has
// not met, the next ordinal, with s itself kept as its name.
//
//lsm:hotpath
func (in *Interner) Ordinal(c Column, s string) uint32 {
	if in.last[c].is(s) {
		return in.last[c].ord
	}
	t := &in.cols[c]
	o, hash, ok := t.findString(s)
	if !ok {
		o = t.add(s, hash)
	}
	in.last[c] = ref{name: t.names[o], ord: o, set: true}
	return o
}
