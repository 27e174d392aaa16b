package simulate

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/heapx"
	"repro/internal/ring"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// serveLane is the seed-derivation lane of the serve side, disjoint
// from the generator's lanes 0–4 (internal/gismo), so a caller may
// reuse one seed for generation and serving without correlating the
// two. Every per-transfer draw comes from a splitmix stream keyed by
// (seed, serveLane, event.Session, event.Seq) — a pure function of the
// event identity, so the log bytes do not depend on how the events
// were generated or scheduled (mirroring the generator's shard-seeding
// scheme, DESIGN.md).
const serveLane uint64 = 5

const (
	// serveSlab is the number of served transfers per slab: the unit
	// the serve goroutine hands to the caller's goroutine per ring
	// operation.
	serveSlab = 256
	// serveRingDepth is the depth of the out ring: how many slabs the
	// serve goroutine may run ahead of the sinks before it parks.
	serveRingDepth = 8
	// serveRecycleDepth is the depth of the recycle ring. It holds every
	// slab that can exist — the out ring's, the one being filled and the
	// one being drained — so a drained slab is never dropped and steady
	// state allocates none.
	serveRecycleDepth = serveRingDepth + 2
)

// StreamSinks receives the simulator's output as it is produced.
// Transfer is called in request-start order; Entry is called in log
// order (non-decreasing timestamp — entries are released once no
// still-active transfer can end earlier). Either may be nil. A sink
// error aborts the run. Every sink runs on the goroutine that called
// RunStream.
//
// A transfer names its client's IP and country by dense id; Names, if
// set, is handed the id → name tables once, before the first transfer.
//
// The *wmslog.Entry passed to Entry is pooled: it is valid only for
// the duration of the call and is recycled afterwards. A sink that
// needs to retain it must copy the value.
type StreamSinks struct {
	Transfer func(trace.Transfer) error
	Names    func(*trace.Names)
	Entry    func(*wmslog.Entry) error
}

// StreamResult summarizes a streamed simulation run.
type StreamResult struct {
	// Transfers is the number of genuine transfers served.
	Transfers int
	// PeakConcurrency is the maximum number of simultaneously active
	// transfers observed.
	PeakConcurrency int
	// Injected counts corrupt spanning entries emitted among the
	// genuine ones (Section 2.4 artifacts).
	Injected int
	// TotalBytes sums bytes served across genuine transfers.
	TotalBytes int64
}

// RunStream serves an event stream, holding O(active transfers) of
// state: the concurrency tracker plus a reorder buffer of log entries
// for transfers that have started but not yet ended (entries are
// timestamped at transfer end, requests arrive in start order). Run is
// a materializing wrapper around it.
//
// It is a two-stage pipeline. One serve goroutine pulls src, admits
// each event (the stream contract and the concurrency level, see
// admission) and computes its server-model outcome into fixed-size
// slabs of by-value results; the slabs cross to the calling goroutine
// over an SPSC out/recycle ring pair, where the emitter drives the
// sinks in admission order. No pointer crosses the seam: each entry is
// copied into the emitter's own pooled entry when it is buffered.
//
// pop must cover every client ID in the stream; horizon bounds the
// trace. seed drives every server-model draw deterministically:
// per-transfer randomness is keyed by (seed, event identity), so equal
// seeds give identical logs at any generator shard count and
// GOMAXPROCS. Spanning-entry injection (cfg.SpanningPerMillion) is a
// per-transfer Bernoulli draw at the same expected rate as the
// original materializing path's fixed count.
//
// RunStream owns src from the call on: it closes it (see
// workload.CloseStream) on every return path, errors included.
func RunStream(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, sinks StreamSinks) (*StreamResult, error) {
	defer workload.CloseStream(src)
	if err := checkServeArgs(&cfg, pop, horizon); err != nil {
		return nil, err
	}
	rows, err := newRowIDs(pop, sinks)
	if err != nil {
		return nil, err
	}

	st := newServeStage(newEventServer(&cfg, pop, horizon, seed, sinks, rows), newAdmission(pop, rows))
	go st.run(src)

	// Stage 2, this goroutine: emit every served transfer in slab order.
	// After a sink error it keeps draining (and recycling) slabs until
	// the serve goroutine has seen the stop and closed the out ring.
	em := newEmitter(sinks)
	for {
		slab, ok := st.out.Pop(nil)
		if !ok {
			break
		}
		for i := 0; err == nil && i < len(slab); i++ {
			if err = em.emit(&slab[i]); err != nil {
				close(st.stop)
			}
		}
		st.rec.TryPush(slab[:0])
	}
	<-st.done
	if err == nil {
		err = st.err
	}
	if err != nil {
		return nil, err
	}
	return em.finish(st.adm.concurrency.peak)
}

// serveStage is stage 1 of RunStream: the goroutine that admits and
// serves events into slabs. err and adm are its own until done is
// closed.
type serveStage struct {
	es   *eventServer
	adm  *admission
	out  *ring.SPSC[[]served] // filled slabs, to the emitter
	rec  *ring.SPSC[[]served] // drained slabs, back to the serve goroutine
	stop chan struct{}        // closed by the emitter on a sink error
	done chan struct{}        // closed when run returns
	err  error                // the stream-contract violation that ended the run, if any
	made int                  // slabs allocated, at most serveRecycleDepth
}

func newServeStage(es *eventServer, adm *admission) *serveStage {
	return &serveStage{
		es:   es,
		adm:  adm,
		out:  ring.NewSPSC[[]served](serveRingDepth, ring.NewGate(), ring.NewGate()),
		rec:  ring.NewSPSC[[]served](serveRecycleDepth, ring.NewGate(), ring.NewGate()),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// run serves src to exhaustion, a stream-contract violation, or a
// stop. The slab in progress when the stream ends or breaks the
// contract is still handed over, so the sinks see every event admitted
// before the violation — exactly what a sequential loop would show them.
func (st *serveStage) run(src workload.Stream) {
	defer close(st.done)
	defer st.out.Close()
	slab := st.newSlab()
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		conc, ok := st.adm.admit(ev)
		if !ok {
			st.err = st.adm.violation(ev)
			break
		}
		n := len(slab)
		slab = slab[:n+1]
		st.es.serve(ev, conc, &slab[n])
		if n+1 == serveSlab {
			if !st.push(slab) {
				return
			}
			slab = st.newSlab()
		}
	}
	if len(slab) > 0 {
		st.push(slab)
	}
}

// newSlab reuses a slab the emitter has drained, or makes one.
func (st *serveStage) newSlab() []served {
	if slab, ok := st.rec.TryPop(); ok {
		return slab
	}
	st.made++
	return make([]served, 0, serveSlab)
}

// push hands a full slab to the emitter, parking while the out ring is
// full. It returns false once the emitter has stopped the run.
func (st *serveStage) push(slab []served) bool {
	select {
	case <-st.stop:
		return false
	default:
	}
	return st.out.Push(slab, st.stop)
}

// checkServeArgs validates RunStream's arguments.
func checkServeArgs(cfg *Config, pop *gismo.Population, horizon int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if pop == nil || pop.Size() == 0 {
		return fmt.Errorf("%w: empty population", ErrBadConfig)
	}
	if horizon <= 0 {
		return fmt.Errorf("%w: horizon %d", ErrBadConfig, horizon)
	}
	return nil
}

// rowIDs is what a run with a Transfer sink holds beyond the
// population: every client's IP and country as the dense ids a
// trace.Transfer carries, numbered in client order once per run — one
// string hash per client, none per transfer — and the id → name tables
// the resulting trace needs. A run without a Transfer sink (lsmgen)
// never builds one.
type rowIDs struct {
	ip      []uint32 // per client
	country []uint16 // per client
	names   trace.Names
}

// maxRowObjects is the number of objects a trace.Transfer can tell
// apart.
const maxRowObjects = math.MaxUint16 + 1

// newRowIDs numbers pop for sinks' Transfer sink and hands the tables
// to its Names sink; it returns nil when there is no Transfer sink.
func newRowIDs(pop *gismo.Population, sinks StreamSinks) (*rowIDs, error) {
	if sinks.Transfer == nil {
		return nil, nil
	}
	n := pop.Size()
	if int64(n) > math.MaxInt32+1 {
		return nil, fmt.Errorf("%w: %d clients are more than a trace can number", ErrBadConfig, n)
	}
	r := &rowIDs{ip: make([]uint32, n), country: make([]uint16, n)}
	ids := wmslog.NewInterner()
	for i := 0; i < n; i++ {
		p := pop.Client(i).Placement
		country := ids.Ordinal(wmslog.ColCountry, p.Country)
		if country > math.MaxUint16 {
			return nil, fmt.Errorf("%w: more than %d countries in the population", ErrBadConfig, math.MaxUint16+1)
		}
		r.ip[i], r.country[i] = ids.Ordinal(wmslog.ColIP, p.IP), uint16(country)
	}
	r.names = trace.Names{IPs: ids.Names(wmslog.ColIP), Countries: ids.Names(wmslog.ColCountry)}
	if sinks.Names != nil {
		sinks.Names(&r.names)
	}
	return r, nil
}

// admission is the serial front of a serve run, on the serve
// goroutine: it holds the stream contract — every client inside the
// population, every object one the output can name, starts
// non-decreasing — and the concurrency level each event is admitted
// at, the only cross-event state of the server model.
type admission struct {
	clients     int
	objects     int // object ids the sinks can carry
	lastStart   int64
	n           int64 // events admitted so far
	concurrency *concurrencyTracker
}

func newAdmission(pop *gismo.Population, rows *rowIDs) *admission {
	a := &admission{clients: pop.Size(), objects: math.MaxInt, concurrency: newConcurrencyTracker()}
	if rows != nil {
		a.objects = maxRowObjects
	}
	return a
}

// admit checks ev against the stream contract and returns the
// concurrency level including it. ok is false, and nothing is
// recorded, when ev breaks the contract; violation names the breach.
//
//lsm:hotpath
func (a *admission) admit(ev workload.Event) (conc int, ok bool) {
	if ev.Client < 0 || ev.Client >= a.clients || uint(ev.Object) >= uint(a.objects) || (a.n > 0 && ev.Start < a.lastStart) {
		return 0, false
	}
	a.lastStart = ev.Start
	a.n++
	return a.concurrency.admit(ev.Start, ev.End()), true
}

// violation renders the error for an event admit refused.
func (a *admission) violation(ev workload.Event) error {
	if ev.Client < 0 || ev.Client >= a.clients {
		return fmt.Errorf("%w: client %d outside population of %d", ErrBadConfig, ev.Client, a.clients)
	}
	if uint(ev.Object) >= uint(a.objects) {
		return fmt.Errorf("%w: object %d outside the %d a transfer can number", ErrBadConfig, ev.Object, a.objects)
	}
	return fmt.Errorf("%w: stream not in start order (%d after %d)", ErrBadConfig, ev.Start, a.lastStart)
}

// emitter is the ordered back of a serve run, on the calling
// goroutine: fed served transfers in admission order, it drives the
// sinks and accumulates the run summary.
type emitter struct {
	sinks   StreamSinks
	pending pendingEntries
	res     StreamResult
}

func newEmitter(sinks StreamSinks) *emitter {
	return &emitter{sinks: sinks, pending: newPendingEntries()}
}

// emit is the emission sequence for one served transfer: release every
// buffered entry the transfer's start has passed, count the transfer,
// hand it to the Transfer sink, then buffer a copy of its entry (and
// of its spanning twin) until its end time.
//
//lsm:hotpath
func (em *emitter) emit(sv *served) error {
	if err := em.pending.flushThrough(sv.start, false, em.sinks.Entry); err != nil {
		return err
	}
	em.res.Transfers++
	em.res.TotalBytes += sv.bytes
	if em.sinks.Transfer != nil {
		if err := em.sinks.Transfer(sv.transfer); err != nil {
			return err
		}
	}
	if em.sinks.Entry != nil {
		em.pending.push(sv.end, &sv.entry)
		if sv.span > 0 {
			twin := em.pending.push(sv.end, &sv.entry)
			twin.Duration = sv.span
			twin.Bytes = sv.span * 1000
		}
	}
	if sv.span > 0 {
		em.res.Injected++
	}
	return nil
}

// finish flushes the entries still buffered and returns the summary;
// a run that served nothing is an error.
func (em *emitter) finish(peak int) (*StreamResult, error) {
	if em.res.Transfers == 0 {
		return nil, fmt.Errorf("%w: empty workload", ErrBadConfig)
	}
	if err := em.pending.flushThrough(0, true, em.sinks.Entry); err != nil {
		return nil, err
	}
	em.res.PeakConcurrency = peak
	return &em.res, nil
}

// served is one transfer's complete serving outcome, by value: the
// trace record, the log entry, and — for the rare Section 2.4
// injection — the duration of a corrupt spanning twin, which the
// emitter rebuilds from the entry. transfer and entry are only
// populated when the run has the corresponding sink.
type served struct {
	transfer trace.Transfer
	entry    wmslog.Entry
	start    int64
	end      int64
	bytes    int64
	span     int64 // the spanning twin's duration; 0 when none was injected
}

// eventServer computes one transfer's server-model outcome from the
// event alone (plus the concurrency level admission observed). Each
// serve reseeds a splitmix source with the event's derived seed, so
// the draws are a pure function of (seed, Session, Seq) — the property
// that makes the log independent of how the stream was generated. Not
// safe for concurrent use.
type eventServer struct {
	cfg       *Config
	pop       *gismo.Population
	root      uint64
	src       *dist.SplitMix64
	rng       *rand.Rand
	uris      []string // lazily built object-URI cache, shared by entries
	horizon   int64
	injectP   float64
	rows      *rowIDs // non-nil exactly when the run has a Transfer sink
	wantEntry bool
}

func newEventServer(cfg *Config, pop *gismo.Population, horizon int64, seed uint64, sinks StreamSinks, rows *rowIDs) *eventServer {
	src := dist.NewSplitMix64(0)
	return &eventServer{
		cfg:       cfg,
		pop:       pop,
		root:      dist.Mix64(seed, serveLane),
		src:       src,
		rng:       rand.New(src),
		horizon:   horizon,
		injectP:   float64(cfg.SpanningPerMillion) / 1_000_000,
		rows:      rows,
		wantEntry: sinks.Entry != nil,
	}
}

// serve computes the outcome of one event at the given concurrency
// level into *sv (overwritten entirely; an out-param so the hot loop
// copies no large struct). The draw order (CPU, bandwidth, loss,
// injection) is fixed — it is part of the deterministic-serve
// contract — and every draw is made regardless of which sinks exist,
// so the outcome never depends on who is listening. Only the
// materialization of the trace record and the log entry is skipped
// for absent sinks.
//
//lsm:hotpath
func (es *eventServer) serve(ev workload.Event, conc int, sv *served) {
	es.src.Seed(int64(dist.Mix64(dist.Mix64(es.root, uint64(ev.Session)), uint64(ev.Seq))))
	client := es.pop.Client(ev.Client)
	cfg := es.cfg
	cpu := cfg.cpuAt(conc, es.rng)
	bw, congested := cfg.drawBandwidth(client.Access.Bps, es.rng)
	payload := bw
	if payload > cfg.EncodingBps {
		payload = cfg.EncodingBps
	}
	bytes := payload * ev.Duration / 8
	loss := cfg.drawLoss(ev.Duration, congested, es.rng)

	*sv = served{start: ev.Start, end: ev.End(), bytes: bytes}
	if rows := es.rows; rows != nil {
		// admission has checked that client and object fit their fields.
		sv.transfer = trace.Transfer{
			Start:     ev.Start,
			Duration:  ev.Duration,
			Bytes:     bytes,
			Bandwidth: bw,
			ServerCPU: cpu,
			Client:    int32(ev.Client),
			IP:        rows.ip[ev.Client],
			AS:        uint32(client.Placement.ASIndex + 1),
			Country:   rows.country[ev.Client],
			Object:    uint16(ev.Object),
		}
	}
	if es.wantEntry {
		sv.entry = wmslog.Entry{
			Timestamp:    cfg.Epoch.Add(time.Duration(sv.end) * time.Second),
			ClientIP:     client.Placement.IP,
			PlayerID:     client.PlayerID,
			ClientOS:     client.OS,
			ClientCPU:    client.CPU,
			URIStem:      es.uri(ev.Object),
			Duration:     ev.Duration,
			Bytes:        bytes,
			AvgBandwidth: bw,
			PacketsLost:  loss,
			ServerCPU:    cpu,
			Referer:      "http://show.example.br/aovivo",
			Status:       200,
			ASNumber:     client.Placement.ASIndex + 1,
			Country:      client.Placement.Country,
		}
	}

	// Section 2.4 multi-harvest artifacts: with probability
	// SpanningPerMillion/1e6 the entry gains a corrupt twin whose
	// duration exceeds the trace period.
	if es.injectP > 0 && es.rng.Float64() < es.injectP {
		sv.span = es.horizon + int64(es.rng.IntN(1_000_000)) + 1
	}
}

// uri returns the cached URI string for an object index, so the hot
// path never re-renders it (entries share the cached string).
func (es *eventServer) uri(obj int) string {
	for obj >= len(es.uris) {
		es.uris = append(es.uris, "")
	}
	if es.uris[obj] == "" {
		es.uris[obj] = ObjectURI(obj)
	}
	return es.uris[obj]
}

// pendingEntries is the reorder buffer of not-yet-emitted log entries,
// a min-heap on (transfer end, admission order). The secondary key
// makes the emission order — and therefore the log bytes — fully
// deterministic under timestamp ties. Entries are recycled through a
// freelist as soon as the Entry sink returns, so a run allocates
// entries proportional to the buffer's high-water mark (~peak
// concurrency), not to the transfer count.
type pendingEntries struct {
	heap heapx.Heap[pendingEntry]
	seq  int64
	free []*wmslog.Entry
}

type pendingEntry struct {
	end   int64
	seq   int64
	entry *wmslog.Entry
}

func newPendingEntries() pendingEntries {
	return pendingEntries{heap: heapx.New(func(a, b *pendingEntry) bool {
		if a.end != b.end {
			return a.end < b.end
		}
		return a.seq < b.seq
	})}
}

// push buffers a copy of *e until the start watermark passes end, and
// returns the copy.
//
//lsm:hotpath
func (p *pendingEntries) push(end int64, e *wmslog.Entry) *wmslog.Entry {
	var cp *wmslog.Entry
	if n := len(p.free); n > 0 {
		cp = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		cp = new(wmslog.Entry)
	}
	*cp = *e
	p.heap.Push(pendingEntry{end: end, seq: p.seq, entry: cp})
	p.seq++
	return cp
}

// flushThrough emits (and recycles) every buffered entry whose end
// time is at or before the start watermark — no still-active transfer
// can end earlier — or everything when all is set.
func (p *pendingEntries) flushThrough(start int64, all bool, sink func(*wmslog.Entry) error) error {
	for p.heap.Len() > 0 && (all || p.heap.Peek().end <= start) {
		pe := p.heap.Pop()
		p.free = append(p.free, pe.entry)
		if err := sink(pe.entry); err != nil {
			return err
		}
	}
	return nil
}

// RunStreamSharded is RunStream; lanes is ignored. It remains for
// callers written against the former laned serve driver.
func RunStreamSharded(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, lanes int, sinks StreamSinks) (*StreamResult, error) {
	return RunStream(src, pop, horizon, cfg, seed, sinks)
}

// DefaultServeLanes is the lane count RunStreamSharded ignores: one,
// the number of serve goroutines RunStream runs.
func DefaultServeLanes() int { return 1 }
