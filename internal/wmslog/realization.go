package wmslog

import (
	"cmp"
	"crypto/md5"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
)

// A tagged transfer carries the workload event it realizes in its
// referer column, so the log of a replay — one file or several — can
// be reconciled event by event (loadgen.Served) and digested as one
// realization (Realization), whatever order its files are read in.

// SessionRef renders a workload event identity as the referer-field tag
// a tagged transfer is logged with. The format has no spaces (referer
// is one space-separated column) and survives the round trip through
// dash-encoding.
func SessionRef(session int64, seq int) string {
	return "event-" + strconv.FormatInt(session, 10) + "." + strconv.Itoa(seq)
}

// ParseSessionRef decodes a SessionRef tag. ok is false for any other
// referer content (foreign logs carry real referer URIs).
func ParseSessionRef(s string) (session int64, seq int, ok bool) {
	rest, found := strings.CutPrefix(s, "event-")
	if !found {
		return 0, 0, false
	}
	sess, seqs, found := strings.Cut(rest, ".")
	if !found {
		return 0, 0, false
	}
	session, err := strconv.ParseInt(sess, 10, 64)
	if err != nil || session < 0 {
		return 0, 0, false
	}
	seq, err = strconv.Atoi(seqs)
	if err != nil || seq < 0 {
		return 0, 0, false
	}
	return session, seq, true
}

// SessionSeq returns the workload event identity a tagged transfer was
// logged with, or ok=false for untagged entries.
func (e *Entry) SessionSeq() (session int64, seq int, ok bool) {
	return ParseSessionRef(e.Referer)
}

// Realization digests the timing-independent identity of a served
// workload realization, added to one logged entry at a time: the
// multiset of (session, seq, player, URI) tuples, canonically ordered.
// Wall-clock fields (timestamps, measured durations, byte counts) are
// excluded, so two serves of the same offered workload — one log split
// over several files, one single file — digest identically exactly when
// they served the same transfers for the same clients, regardless of
// file order or scheduling jitter. Only tagged entries
// carry an identity; an untagged entry's tuple degenerates to
// (-1, 0, player, URI), which still pins the per-client object
// multiset.
type Realization struct {
	ids []realizationID
}

type realizationID struct {
	session int64
	seq     int
	player  string
	uri     string
}

// Add counts one logged entry. It keeps the entry's player and URI
// strings, never the entry, so it can be a scan callback's sink.
func (r *Realization) Add(e *Entry) {
	id := realizationID{session: -1, player: e.PlayerID, uri: e.URIStem}
	if s, q, ok := e.SessionSeq(); ok {
		id.session, id.seq = s, q
	}
	r.ids = append(r.ids, id)
}

// Digest returns the hex md5 of the tuples added so far, one
// "session seq player uri" line each in (session, seq, player, URI)
// order.
func (r *Realization) Digest() string {
	slices.SortFunc(r.ids, func(x, y realizationID) int {
		return cmp.Or(cmp.Compare(x.session, y.session), cmp.Compare(x.seq, y.seq),
			strings.Compare(x.player, y.player), strings.Compare(x.uri, y.uri))
	})
	h := md5.New()
	var buf []byte
	for _, id := range r.ids {
		buf = strconv.AppendInt(buf[:0], id.session, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(id.seq), 10)
		buf = append(buf, ' ')
		buf = append(buf, id.player...)
		buf = append(buf, ' ')
		buf = append(buf, id.uri...)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
