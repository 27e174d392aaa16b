package wmslog

// Column names one of the four string columns that identify who asked
// for what from where. An Interner numbers URIs and countries (Ordinal);
// players and IPs are numbered by the trace ingest's identity stage,
// which reads them through Identity, and their Column values name them
// there.
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

// Interner deduplicates the handful-valued string fields of entries
// scanned from text logs — c-os, c-cpu, cs-uri-stem and s-country come
// from a few dozen values — and numbers what it holds: a scan through it
// hands out one canonical string per distinct value, so those fields
// allocate per distinct value, not per entry, and a value's ordinal is
// the order the interner first met it (Ordinal). (A binary log's strings
// are dictionary-coded, one allocation per distinct value per file
// already; it bypasses the tables.)
//
// c-ip and c-playerid, which number in the tens of thousands, are not
// interned: a scan fills them as a nil interner does — the string the
// reused entry already holds when the line repeats it, a fresh one
// otherwise. The one table for them is the trace ingest's identity
// stage, fed by an interner made by NewDeferredInterner: a scan through
// that hands a text line's c-ip and c-playerid to its callback as bytes
// (Identity), for a consumer that numbers identities in one place for
// many parsing goroutines and would only throw per-file strings away.
// Nor does such a scan keep c-os, c-cpu or cs(Referer): it checks their
// columns and leaves the fields empty on every entry, for a consumer
// that reads none of the three — the trace ingest, whose rows hold none
// of them — so a line costs no string for them, not even the referer a
// tagged serve log makes unique per line (SessionRef). What a deferred
// scan does intern — URI and country — it numbers like any interner,
// which makes one deferred interner a file's own numbering of its
// handful of objects and countries.
//
// The tables grow with the number of distinct values, never with the
// number of entries: the referer column, the one field a tagged serve
// log makes unique per entry, bypasses them. An Interner is not safe
// for concurrent use; a parallel ingest gives each file its own. The
// nil *Interner is valid and interns nothing; the zero Interner is an
// empty interning one.
type Interner struct {
	cols [numInterned]table
	// last is, per column, the value most recently handed out: the next
	// request for that value's ordinal is one string compare, usually of
	// a string with itself.
	last [numInterned]ref

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
// handful of short string compares beats a hash. No column a media
// server logs outgrows it.
const linearMax = 16

// table numbers the distinct values of one column 0, 1, 2, … in the
// order they are added: a list, searched linearly, until it outgrows
// linearMax values, and from then on also indexed by a map.
type table struct {
	names []string
	index map[string]uint32 // nil while the table is a list
}

// find returns the ordinal of b, if the table holds it.
//
//lsm:hotpath
func (t *table) find(b []byte) (uint32, bool) {
	if t.index != nil {
		o, ok := t.index[string(b)]
		return o, ok
	}
	for i, v := range t.names {
		if v == string(b) {
			return uint32(i), true
		}
	}
	return 0, false
}

// findString is find for a value that is already a string.
//
//lsm:hotpath
func (t *table) findString(s string) (uint32, bool) {
	if t.index != nil {
		o, ok := t.index[s]
		return o, ok
	}
	for i, v := range t.names {
		if v == s {
			return uint32(i), true
		}
	}
	return 0, false
}

// add appends s, which find has just missed and which the table keeps,
// and returns its ordinal.
func (t *table) add(s string) uint32 {
	o := uint32(len(t.names))
	t.names = append(t.names, s)
	switch {
	case t.index != nil:
		t.index[s] = o
	case len(t.names) > linearMax:
		t.index = make(map[string]uint32, len(t.names))
		for i, v := range t.names {
			t.index[v] = uint32(i)
		}
	}
	return o
}

// NewInterner returns an empty interner: a scan through it interns
// c-os, c-cpu, cs-uri-stem and s-country, numbering the last two, and
// fills c-ip and c-playerid as a nil interner does.
func NewInterner() *Interner { return &Interner{} }

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
	if in == nil {
		return reuse(b, prev)
	}
	if string(b) == prev {
		return prev
	}
	t := &in.cols[c]
	o, ok := t.find(b)
	if !ok {
		o = t.add(string(b))
	}
	in.last[c] = ref{name: t.names[o], ord: o, set: true}
	return t.names[o]
}

// reuse returns prev when b still holds it, a fresh string of b
// otherwise.
//
//lsm:hotpath
func reuse(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// identity fills e's c-ip and c-playerid from a text line's columns:
// as reuse does, and in deferred mode not at all — the columns are kept
// for Identity and the fields left empty.
//
//lsm:hotpath
func (in *Interner) identity(e *Entry, ip, pid []byte) {
	if in.drops() {
		in.ip, in.player = ip, pid
		e.ClientIP, e.PlayerID = "", ""
		return
	}
	e.ClientIP, e.PlayerID = reuse(ip, e.ClientIP), reuse(pid, e.PlayerID)
}

// Identity returns the c-ip and c-playerid of e, the entry a Scan
// through in has just handed its callback, as bytes that are valid only
// until the callback returns: copy them, never keep the slices (lsmvet's
// entryretain analyzer holds callers to that, as it does for e itself).
// In deferred mode a text line's columns are handed out as
// they lie in the parser's buffer, with no string made of either; an
// entry that carries the two as strings — a binary record, any entry
// of a non-deferred scan — has them copied into a buffer the next call
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
	o, ok := t.findString(s)
	if !ok {
		o = t.add(s)
	}
	in.last[c] = ref{name: t.names[o], ord: o, set: true}
	return o
}
