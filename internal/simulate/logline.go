package simulate

import (
	"strings"
	"time"

	"repro/internal/gismo"
	"repro/internal/topology"
	"repro/internal/wmslog"
)

// The log half of the emitter: a released log record becomes a text
// line for the Line sink and a reused wmslog.Entry for the Entry sink,
// both rendered from the record's numbers and the run's tables.

// release hands one log record to the Line sink as text and to the
// Entry sink as the reused entry.
func (em *emitter) release(r *logRecord) error {
	ts := wmslog.TraceEpoch.Add(time.Duration(r.end) * time.Second)
	if em.sinks.Line != nil {
		if err := em.writeLine(ts, r); err != nil {
			return err
		}
	}
	if em.sinks.Entry != nil {
		if err := em.log.fillEntry(&em.entry, ts, r); err != nil {
			return err
		}
		return em.sinks.Entry(&em.entry)
	}
	return nil
}

// writeLine renders r and hands it to the Line sink: the client's
// dotted quad and player id from its address and index, every other
// text column from the run's tables, checked when they were made.
//
//lsm:hotpath
func (em *emitter) writeLine(ts time.Time, r *logRecord) error {
	t := em.log
	uri, err := t.uri(r.object)
	if err != nil {
		return err
	}
	id := topology.AppendIPv4(em.id[:0], r.row.IP)
	ipLen := len(id)
	em.id = gismo.AppendPlayerID(id, int(r.client))
	l := wmslog.Line{
		Timestamp:    ts,
		ClientIP:     em.id[:ipLen],
		PlayerID:     em.id[ipLen:],
		ClientOS:     t.os[r.row.OS],
		ClientCPU:    t.cpu[r.row.CPU],
		URIStem:      uri.f,
		Duration:     r.duration,
		Bytes:        r.bytes,
		AvgBandwidth: r.bw,
		PacketsLost:  r.loss,
		ServerCPU:    r.cpu,
		Referer:      t.referer,
		Status:       logStatus,
		ASNumber:     int(r.row.AS) + 1,
		Country:      t.country[r.row.AS],
	}
	if err := l.Validate(); err != nil {
		return err
	}
	em.line = wmslog.AppendLine(em.line[:0], &l)
	return em.sinks.Line(ts, em.line)
}

// The cs(Referer) and sc-status every served transfer logs.
const (
	logReferer = "http://show.example.br/aovivo"
	logStatus  = 200
)

// logTables is what a run with a Line or Entry sink renders its log
// records from beyond the records themselves: each text column's
// values — as checked wmslog.Fields for the Line sink, as strings for
// the Entry sink, each made once per run (per object for the URIs, as
// the object first appears). Timestamps count from wmslog.TraceEpoch.
type logTables struct {
	ases []topology.AS

	uris []objectURI // per object, made on first use

	// Line sink: each column's values in log form.
	os, cpu []wmslog.Field
	country []wmslog.Field // per AS
	referer wmslog.Field

	// Entry sink: every client's dotted quad and player id.
	names *entryNames
}

func newLogTables(pop *gismo.Population, sinks StreamSinks) (*logTables, error) {
	t := &logTables{ases: pop.Topology().ASes}
	if sinks.Entry != nil {
		t.names = newEntryNames(pop)
	}
	if sinks.Line == nil {
		return t, nil
	}
	var err error
	if t.os, err = optionalFields(gismo.ClientOSes); err != nil {
		return nil, err
	}
	if t.cpu, err = optionalFields(gismo.ClientCPUs); err != nil {
		return nil, err
	}
	countries := make([]string, len(t.ases))
	for i, as := range t.ases {
		countries[i] = as.Country
	}
	if t.country, err = optionalFields(countries); err != nil {
		return nil, err
	}
	if t.referer, err = wmslog.OptionalField(logReferer); err != nil {
		return nil, err
	}
	return t, nil
}

// optionalFields makes a Field of each value.
func optionalFields(values []string) ([]wmslog.Field, error) {
	out := make([]wmslog.Field, len(values))
	for i, v := range values {
		f, err := wmslog.OptionalField(v)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// objectURI is one object's cs-uri-stem, as the Entry sink's string
// and as the Line sink's checked Field.
type objectURI struct {
	s string
	f wmslog.Field
}

// uri returns object obj's URI, rendering and checking it the first
// time it is asked for.
func (t *logTables) uri(obj int) (*objectURI, error) {
	if obj < len(t.uris) && t.uris[obj].s != "" {
		return &t.uris[obj], nil
	}
	return t.newURI(obj)
}

// newURI is uri's slow path, once per object.
func (t *logTables) newURI(obj int) (*objectURI, error) {
	s := ObjectURI(obj)
	f, err := wmslog.MandatoryField(s)
	if err != nil {
		return nil, err
	}
	for obj >= len(t.uris) {
		t.uris = append(t.uris, objectURI{})
	}
	t.uris[obj] = objectURI{s: s, f: f}
	return &t.uris[obj], nil
}

// fillEntry overwrites *e with record r stamped ts.
func (t *logTables) fillEntry(e *wmslog.Entry, ts time.Time, r *logRecord) error {
	uri, err := t.uri(r.object)
	if err != nil {
		return err
	}
	*e = wmslog.Entry{
		Timestamp:    ts,
		ClientIP:     t.names.ip(int(r.client)),
		PlayerID:     t.names.player(int(r.client)),
		ClientOS:     gismo.ClientOSes[r.row.OS],
		ClientCPU:    gismo.ClientCPUs[r.row.CPU],
		URIStem:      uri.s,
		Duration:     r.duration,
		Bytes:        r.bytes,
		AvgBandwidth: r.bw,
		PacketsLost:  r.loss,
		ServerCPU:    r.cpu,
		Referer:      logReferer,
		Status:       logStatus,
		ASNumber:     int(r.row.AS) + 1,
		Country:      t.ases[r.row.AS].Country,
	}
	return nil
}

// entryNames is every client's dotted quad and player id as strings, for
// the Entry sink: one text, client i's IP ending at ends[2i] and its
// player id at ends[2i+1]. A run without an Entry sink never builds one.
type entryNames struct {
	text string
	ends []uint32
}

// newEntryNames renders pop's names into a builder grown once, so the
// text is never copied. gismo.MaxClients keeps it under 2³¹ bytes.
func newEntryNames(pop *gismo.Population) *entryNames {
	n := pop.Size()
	nm := &entryNames{ends: make([]uint32, 2*n)}
	var text strings.Builder
	text.Grow(n * len("255.255.255.255player-0000000"))
	var scratch [64]byte
	for i := 0; i < n; i++ {
		b := topology.AppendIPv4(scratch[:0], pop.Row(i).IP)
		ipLen := len(b)
		b = gismo.AppendPlayerID(b, i)
		text.Write(b)
		nm.ends[2*i] = uint32(text.Len() - len(b) + ipLen)
		nm.ends[2*i+1] = uint32(text.Len())
	}
	nm.text = text.String()
	return nm
}

func (nm *entryNames) ip(i int) string {
	start := uint32(0)
	if i > 0 {
		start = nm.ends[2*i-1]
	}
	return nm.text[start:nm.ends[2*i]]
}

func (nm *entryNames) player(i int) string { return nm.text[nm.ends[2*i]:nm.ends[2*i+1]] }
