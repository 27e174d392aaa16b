package wmslog

import "hash/maphash"

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

// Interner deduplicates the string fields of entries scanned from text
// logs and numbers what it holds. An access log repeats its strings
// heavily — every transfer of a player repeats the player ID and usually
// the IP, and OS, CPU, URI and country come from small sets — so a scan
// that hands out one canonical string per distinct value allocates per
// distinct value, not per entry. What the interner hands out it also
// numbers: a value's ordinal is its position in its column's table, the
// order the interner first met it (Ordinal, Client). (A binary log's
// strings are dictionary-coded, one allocation per distinct value per
// file already; it bypasses the tables.)
//
// Each column has its own table. OS, CPU, URI and country are searched
// linearly until they outgrow linearMax values; the player table is
// hashed, and remembers the IP each player was last seen under, so in
// steady state a line costs one string hash: its player ID, and not
// even that when the previous line was the same player's.
//
// An interner made by NewDeferredInterner does not intern c-ip and
// c-playerid at all: a scan through it hands them to its callback as
// bytes (Identity), for a consumer that numbers identities in one place
// for many parsing goroutines and would only throw per-file strings
// away. Nor does such a scan keep c-os, c-cpu or cs(Referer): it checks
// their columns and leaves the fields empty on every entry, for a
// consumer that reads none of the three — the trace ingest, whose rows
// hold none of them — so a line costs no string for them, not even the
// referer a tagged serve log makes unique per line (SessionRef). What a
// deferred scan does intern — URI and country — it numbers like any
// interner (Ordinal), which makes one deferred interner a file's own
// numbering of its handful of objects and countries.
//
// The tables grow with the number of distinct values, never with the
// number of entries: the referer column, the one field a tagged serve
// log makes unique per entry, bypasses them. An Interner is not safe
// for concurrent use; a parallel ingest gives each file its own. The
// nil *Interner is valid and interns nothing; the zero Interner is an
// empty interning one (NewInterner only presizes the player and IP
// indexes).
type Interner struct {
	cols [numInterned]table
	// last is, per column, the value most recently handed out: the next
	// request for that value's ordinal is one string compare, usually of
	// a string with itself.
	last [numInterned]ref
	// playerIP is indexed by player ordinal (and grown on demand): the
	// IP that player's latest line carried.
	playerIP []ref

	// deferred selects the deferred mode; ip and player are then the
	// c-ip and c-playerid columns of the line just scanned, aliasing the
	// parser's buffer, and scratch is Identity's copy of an entry's own
	// strings.
	deferred   bool
	ip, player []byte
	scratch    []byte
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
// open-addressed index (linear probing, at most half full) whose slot
// holds a value's hash beside its ordinal: unlike a map[string]uint32
// it finds-or-places a value with one hash, compares the stored hash
// before it touches a name — one cache line per probe until the name
// itself — and regrows by re-placing slots without reading a name.
type table struct {
	names []string
	slots []uint64 // hash<<32 | 1 + ordinal, 0 for an empty slot; a power of two long; nil while the table is a list
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
		if s := t.slots[i]; uint32(s>>32) == hash && t.names[uint32(s)-1] == string(b) {
			return uint32(s) - 1, hash, true
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
		if v := t.slots[i]; uint32(v>>32) == hash && t.names[uint32(v)-1] == s {
			return uint32(v) - 1, hash, true
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
		if 2*len(t.names) > len(t.slots) {
			t.index(2 * len(t.slots))
		}
		t.place(hash, o)
	case len(t.names) > linearMax:
		// Outgrew the list: hash what it holds.
		t.index(8 * linearMax)
		for i, v := range t.names {
			t.place(uint32(maphash.String(hashSeed, v)), uint32(i))
		}
	}
	return o
}

// index gives the table a slot array of the given size, re-placing what
// the old one held; no name is read.
func (t *table) index(size int) {
	old := t.slots
	t.slots = make([]uint64, size)
	for _, v := range old {
		if v != 0 {
			t.place(uint32(v>>32), uint32(v)-1)
		}
	}
}

// place puts ordinal o, whose value hashes to hash, in the first free
// slot of its probe sequence.
func (t *table) place(hash, o uint32) {
	mask := uint32(len(t.slots) - 1)
	i := hash & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = uint64(hash)<<32 | uint64(o+1)
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

// NewDeferredInterner returns an empty interner in deferred mode: a scan
// through it interns URI and country as usual, leaves a text
// line's c-ip and c-playerid empty in the entry and hands them to the
// callback as bytes instead (Identity), and leaves c-os, c-cpu and
// cs(Referer) empty on every entry, text or binary. It is the trace
// ingest's interner, one per file.
func NewDeferredInterner() *Interner { return &Interner{deferred: true} }

// drops reports whether a scan through in leaves c-os, c-cpu and
// cs(Referer) empty: in deferred mode.
func (in *Interner) drops() bool { return in != nil && in.deferred }

// drop empties the fields a deferred scan does not keep, on a binary
// record (a text line's are never made).
func (in *Interner) drop(e *Entry) {
	if in.drops() {
		e.ClientOS, e.ClientCPU, e.Referer = "", "", ""
	}
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
	in.lookup(c, b)
	return in.last[c].name
}

// lookup finds b in column c's table, adding a copy when the table does
// not hold it, and leaves it in last.
//
//lsm:hotpath
func (in *Interner) lookup(c Column, b []byte) {
	t := &in.cols[c]
	o, hash, ok := t.find(b)
	if !ok {
		o = t.add(string(b), hash)
	}
	in.last[c] = ref{name: t.names[o], ord: o, set: true}
}

// identity fills e's c-ip and c-playerid from a text line's columns:
// fresh strings (after the free check against the values e already
// holds) without an interner, the canonical instances with one, and
// nothing at all in deferred mode — the columns are kept for Identity
// and the fields left empty.
//
//lsm:hotpath
func (in *Interner) identity(e *Entry, ip, pid []byte) {
	switch {
	case in == nil:
		e.ClientIP, e.PlayerID = in.intern(ColIP, ip, e.ClientIP), in.intern(ColPlayer, pid, e.PlayerID)
	case in.deferred:
		in.ip, in.player = ip, pid
		e.ClientIP, e.PlayerID = "", ""
	default:
		in.client(ip, pid)
		e.ClientIP, e.PlayerID = in.last[ColIP].name, in.last[ColPlayer].name
	}
}

// client interns a c-ip and c-playerid pair together, leaving both in
// last: the player through its hashed table (unless it is the player
// last handed out), the IP by comparing it with the one that player's
// record holds, and through the IP table only when the player is new
// or has moved.
//
//lsm:hotpath
func (in *Interner) client(ip, pid []byte) {
	if p := &in.last[ColPlayer]; !p.set || string(pid) != p.name {
		in.lookup(ColPlayer, pid)
	}
	at := in.ipOf(in.last[ColPlayer].ord)
	if !at.set || string(ip) != at.name {
		in.lookup(ColIP, ip)
		*at = in.last[ColIP]
	}
	in.last[ColIP] = *at
}

// ipOf returns player p's IP record.
func (in *Interner) ipOf(p uint32) *ref {
	if int(p) >= len(in.playerIP) {
		in.playerIP = append(in.playerIP, make([]ref, int(p)+1-len(in.playerIP))...)
	}
	return &in.playerIP[p]
}

// Identity returns the c-ip and c-playerid of e, the entry a Scan
// through in has just handed its callback, as bytes that are valid only
// until the callback returns: copy them, never keep the slices (lsmvet's
// entryretain analyzer holds callers to that, as it does for e itself).
// In deferred mode a text line's columns are handed out as
// they lie in the parser's buffer, with no string made of either; an
// entry that carries the two as strings — a binary record, any entry
// of an interning scan — has them copied into a buffer the next call
// reuses.
func (in *Interner) Identity(e *Entry) (ip, pid []byte) {
	if e.PlayerID == "" { // a valid entry's player ID never is: deferred
		return in.ip, in.player
	}
	in.scratch = append(append(in.scratch[:0], e.ClientIP...), e.PlayerID...)
	return in.scratch[:len(e.ClientIP)], in.scratch[len(e.ClientIP):]
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
