// Package entryretain exercises the entryretain analyzer against the
// pooled-entry contract: a sink *wmslog.Entry is recycled after the
// call, so the pointer must not outlive it. Value copies are safe;
// //lsm:retain grants audited ownership.
package entryretain

import (
	"io"

	"repro/internal/wmslog"
)

type holder struct {
	last *wmslog.Entry
}

var global *wmslog.Entry

func (h *holder) sinkField(e *wmslog.Entry) {
	h.last = e // want `stored in a struct field`
}

func sinkSlice(buf []*wmslog.Entry, e *wmslog.Entry) {
	buf[0] = e         // want `stored in a slice or map`
	_ = append(buf, e) // want `appended to a slice`
}

func sinkGlobal(e *wmslog.Entry) {
	global = e // want `stored in a package-level variable`
}

func sinkAlias(e *wmslog.Entry) {
	alias := e
	global = alias // want `stored in a package-level variable`
}

func sinkChan(ch chan *wmslog.Entry, e *wmslog.Entry) {
	ch <- e // want `sent on a channel`
}

func sinkGoroutine(e *wmslog.Entry) {
	go consume(e) // want `passed to a goroutine`
}

func sinkClosure(e *wmslog.Entry) func() int64 {
	return func() int64 { return e.Bytes } // want `captured by a closure`
}

func sinkComposite(e *wmslog.Entry) []*wmslog.Entry {
	return []*wmslog.Entry{e} // want `stored in a composite literal`
}

func sinkCopy(e *wmslog.Entry) wmslog.Entry {
	cp := *e // copying the value is the sanctioned way to retain
	return cp
}

func consume(e *wmslog.Entry) {
	_ = e.Bytes
}

//lsm:retain -- this fixture function owns its entries (parser-style)
func owner(e *wmslog.Entry) {
	global = e
}

// A wmslog.Scan callback is an entry sink like any other: the scan
// decodes every record into ONE reused Entry, so the pointer a callback
// keeps is overwritten by the next record. Func literals are checked
// from their own *wmslog.Entry parameter.
func scanRetains(r io.Reader) ([]*wmslog.Entry, *holder, error) {
	var kept []*wmslog.Entry
	h := &holder{}
	_, err := wmslog.Scan(r, true, wmslog.NewInterner(), func(e *wmslog.Entry) error {
		kept = append(kept, e) // want `appended to a slice`
		h.last = e             // want `stored in a struct field`
		return nil
	})
	return kept, h, err
}

// Cloning the value is the sanctioned way to keep a scanned entry, and
// its strings may be kept as they are: they are immutable, owned by the
// interner, never rewritten in place.
func scanClones(r io.Reader) ([]wmslog.Entry, []string, error) {
	var out []wmslog.Entry
	var players []string
	_, err := wmslog.Scan(r, true, wmslog.NewInterner(), func(e *wmslog.Entry) error {
		out = append(out, *e)
		players = append(players, e.PlayerID)
		return nil
	})
	return out, players, err
}
