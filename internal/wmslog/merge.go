package wmslog

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/heapx"
)

// A fleet of media servers produces one transfer log per node; the
// verification machinery (loadgen.Check, md5-identical log
// contracts) wants one log. MergeFiles is the bridge: a deterministic
// K-way merge of per-node logs into a single log whose entry order
// depends only on entry content — (end-time, session, seq, rendered
// line) — never on which node served a transfer or how goroutines
// interleaved their completion writes. Two fleet runs that serve the
// same realization merge to the same file modulo wall-clock jitter, and
// RealizationDigest below removes even that: it hashes the
// timing-independent identity of the realization, so a pure-hash-policy
// fleet run is byte-comparable to a single-node serve of the same
// workload.

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

// mergeKey is the deterministic total order MergeFiles sorts by:
// end-time first (the log's native order), then the workload event
// identity, then — for untagged entries only — the fully rendered line
// as the final tiebreak. Tagged entries are unique by (session, seq),
// so rendering their lines up front would only double the merge's
// memory for a tiebreak that never fires; untagged entries share one
// key rank per second and need the content order to merge
// reproducibly across partitionings.
type mergeKey struct {
	unix    int64
	session int64
	seq     int
	line    string
}

func keyOf(e *Entry) mergeKey {
	k := mergeKey{unix: e.Timestamp.Unix(), session: int64(UntaggedKeySession), seq: 0}
	if s, q, ok := e.SessionSeq(); ok {
		k.session, k.seq = s, q
		return k
	}
	k.line = string(AppendEntry(nil, e))
	return k
}

// UntaggedKeySession is the session rank untagged entries merge under:
// below every real tag, so tagged and untagged entries never interleave
// ambiguously within one timestamp.
const UntaggedKeySession = -1

func (k mergeKey) less(o mergeKey) bool {
	if k.unix != o.unix {
		return k.unix < o.unix
	}
	if k.session != o.session {
		return k.session < o.session
	}
	if k.seq != o.seq {
		return k.seq < o.seq
	}
	return k.line < o.line
}

// MergeStats summarizes one merge.
type MergeStats struct {
	Files   int
	Entries int
	// Tagged counts entries carrying a session/seq workload tag.
	Tagged int
	// Binary counts input entries that arrived in the binary framing
	// (inputs are format-mixed freely; the merged output is always
	// canonical text).
	Binary int
	// Realization is the hex md5 of the merged realization — see
	// RealizationDigest.
	Realization string
}

// MergeEntries merges per-node entry slices into one slice in the
// deterministic (end-time, session, seq, line) order. Inputs need not
// be sorted (a node's completion sink writes in goroutine-completion
// order, which can invert neighbors around a second boundary); each
// input is sorted first, then the sorted runs K-way merge through one
// shared heap of cursors.
func MergeEntries(files [][]*Entry) []*Entry {
	type cursor struct {
		entries []*Entry
		keys    []mergeKey
		pos     int
	}
	total := 0
	cursors := make([]*cursor, 0, len(files))
	for _, entries := range files {
		if len(entries) == 0 {
			continue
		}
		idx := make([]int, len(entries))
		keys := make([]mergeKey, len(entries))
		for i, e := range entries {
			idx[i] = i
			keys[i] = keyOf(e)
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]].less(keys[idx[b]]) })
		c := &cursor{
			entries: make([]*Entry, len(entries)),
			keys:    make([]mergeKey, len(entries)),
		}
		for i, j := range idx {
			c.entries[i] = entries[j]
			c.keys[i] = keys[j]
		}
		cursors = append(cursors, c)
		total += len(entries)
	}

	h := heapx.New(func(a, b **cursor) bool { return (*a).keys[(*a).pos].less((*b).keys[(*b).pos]) })
	for _, c := range cursors {
		h.Push(c)
	}
	out := make([]*Entry, 0, total)
	for h.Len() > 0 {
		c := *h.Top()
		out = append(out, c.entries[c.pos])
		c.pos++
		if c.pos < len(c.entries) {
			h.FixTop()
		} else {
			h.Pop()
		}
	}
	return out
}

// MergeFiles parses each per-node log (strictly — a corrupt node log
// must fail the merge, not silently thin it), merges the entries
// deterministically, and writes one canonical log to w. The returned
// stats carry the realization digest of the merged log.
func MergeFiles(w io.Writer, paths []string) (MergeStats, error) {
	stats := MergeStats{Files: len(paths)}
	files := make([][]*Entry, 0, len(paths))
	for _, path := range paths {
		r, closer, err := openLog(path)
		if err != nil {
			return stats, err
		}
		entries, st, err := ReadAll(r, false)
		closer.Close()
		if err != nil {
			return stats, fmt.Errorf("wmslog: merge %s: %w", path, err)
		}
		stats.Binary += st.Binary
		files = append(files, entries)
	}
	merged := MergeEntries(files)

	lw := NewWriter(w)
	for _, e := range merged {
		if err := lw.Write(e); err != nil {
			return stats, err
		}
	}
	if err := lw.Flush(); err != nil {
		return stats, err
	}
	stats.Entries = len(merged)
	for _, e := range merged {
		if _, _, ok := e.SessionSeq(); ok {
			stats.Tagged++
		}
	}
	stats.Realization = RealizationDigest(merged)
	return stats, nil
}

// RealizationDigest hashes the timing-independent identity of a served
// workload realization: the multiset of (session, seq, player, URI)
// tuples, canonically ordered. Wall-clock fields (timestamps, measured
// durations, byte counts) are excluded, so two serves of the same
// offered workload — one fleet-merged, one single-node — digest
// identically exactly when they served the same transfers for the same
// clients, regardless of node assignment or scheduling jitter. Only
// tagged entries carry an identity; for untagged entries the tuple
// degenerates to (player, URI), which still pins the per-client object
// multiset.
func RealizationDigest(entries []*Entry) string {
	type ident struct {
		session int64
		seq     int
		player  string
		uri     string
	}
	ids := make([]ident, len(entries))
	for i, e := range entries {
		id := ident{session: int64(UntaggedKeySession), player: e.PlayerID, uri: e.URIStem}
		if s, q, ok := e.SessionSeq(); ok {
			id.session, id.seq = s, q
		}
		ids[i] = id
	}
	sort.Slice(ids, func(a, b int) bool {
		x, y := ids[a], ids[b]
		if x.session != y.session {
			return x.session < y.session
		}
		if x.seq != y.seq {
			return x.seq < y.seq
		}
		if x.player != y.player {
			return x.player < y.player
		}
		return x.uri < y.uri
	})
	h := md5.New()
	var buf []byte
	for _, id := range ids {
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
