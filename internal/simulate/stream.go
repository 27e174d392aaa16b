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
// Transfer is called in request-start order; Line and Entry are called
// in log order (non-decreasing timestamp — a transfer's log record is
// released once no still-active transfer can end earlier), Line first
// when both are set. Any may be nil. A sink error aborts the run. Every
// sink runs on the goroutine that called RunStream.
//
// Transfer sees what the log holds: a transfer that gains a corrupt
// spanning twin (Config.SpanningPerMillion) is followed by the row the
// twin's log line parses to — the same end, Duration the span (longer
// than the horizon), Start end − span (negative, out of start order),
// Bytes span·1000, every other field the genuine row's. The rows are
// the log's trace, spanning entries included: sanitize them (Section
// 2.4; trace.Stream does) before analysis. StreamResult's Transfers
// and TotalBytes count the genuine transfers only.
//
// A transfer names its client's IP and country by dense id; Names, if
// set, is handed the country table once, before the first transfer.
//
// Line is handed each log record rendered as one text line (no
// newline) stamped ts: wmslog.AppendLine's bytes, equal to
// wmslog.AppendEntry of the entry the Entry sink is handed for the same
// record. The slice is reused: it is valid only for the duration of
// the call.
//
// Entry is handed the same record as a *wmslog.Entry, for a sink that
// wants fields rather than text (the binary format, a collector). The
// entry is one the emitter reuses for every record: it is valid only
// for the duration of the call, and a sink that needs to retain it
// must copy the value.
type StreamSinks struct {
	Transfer func(trace.Transfer) error
	Names    func(*trace.Names)
	Line     func(ts time.Time, line []byte) error
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
// state: the concurrency tracker plus a reorder buffer of log records
// for transfers that have started but not yet ended (log lines are
// timestamped at transfer end, requests arrive in start order). Run is
// a materializing wrapper around it.
//
// It is a two-stage pipeline. One serve goroutine pulls src, admits
// each event (the stream contract and the concurrency level, see
// admission) and computes its server-model outcome into fixed-size
// slabs of by-value results; the slabs cross to the calling goroutine
// over an SPSC out/recycle ring pair, where the emitter drives the
// sinks in admission order. No pointer crosses the seam: a result's log
// record is numbers, copied into the emitter's reorder buffer, and its
// text is rendered only when the record is released to the sinks.
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

	em, err := newEmitter(pop, sinks)
	if err != nil {
		return nil, err
	}
	st := newServeStage(newEventServer(&cfg, pop, horizon, seed, rows), newAdmission(pop, rows))
	go st.run(src)

	// Stage 2, this goroutine: emit every served transfer in slab order.
	// After a sink error it keeps draining (and recycling) slabs until
	// the serve goroutine has seen the stop and closed the out ring.
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
// map probe per client, none per transfer — and the country table the
// resulting rows index. A run without a Transfer sink (lsmgen) never
// builds one.
type rowIDs struct {
	ip      []uint32 // per client
	country []uint16 // per client
	names   trace.Names
}

// maxRowObjects is the number of objects a trace.Transfer can tell
// apart.
const maxRowObjects = math.MaxUint16 + 1

// newRowIDs numbers pop for sinks' Transfer sink and hands the country
// table to its Names sink; it returns nil when there is no Transfer
// sink. An IP is numbered by its address, in the order its first
// client comes; no address is rendered.
func newRowIDs(pop *gismo.Population, sinks StreamSinks) (*rowIDs, error) {
	if sinks.Transfer == nil {
		return nil, nil
	}
	n := pop.Size()
	if int64(n) > math.MaxInt32+1 {
		return nil, fmt.Errorf("%w: %d clients are more than a trace can number", ErrBadConfig, n)
	}
	r := &rowIDs{ip: make([]uint32, n), country: make([]uint16, n)}
	countries := wmslog.NewInterner()
	ases := pop.Topology().ASes
	ipIDs := make(map[uint32]uint32, n)
	for i := 0; i < n; i++ {
		row := pop.Row(i)
		country := countries.Ordinal(wmslog.ColCountry, ases[row.AS].Country)
		if country > math.MaxUint16 {
			return nil, fmt.Errorf("%w: more than %d countries in the population", ErrBadConfig, math.MaxUint16+1)
		}
		id, ok := ipIDs[row.IP]
		if !ok {
			id = uint32(len(ipIDs))
			ipIDs[row.IP] = id
		}
		r.ip[i], r.country[i] = id, uint16(country)
	}
	r.names = trace.Names{Countries: countries.Names(wmslog.ColCountry)}
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
	pending pendingRecords
	res     StreamResult
	log     *logTables // nil when the run has no Line and no Entry sink
	id      []byte     // scratch: a line's dotted quad, then its player id
	line    []byte     // scratch: the line handed to the Line sink
	entry   wmslog.Entry
}

func newEmitter(pop *gismo.Population, sinks StreamSinks) (*emitter, error) {
	em := &emitter{sinks: sinks}
	if sinks.Line == nil && sinks.Entry == nil {
		return em, nil
	}
	log, err := newLogTables(pop, sinks)
	if err != nil {
		return nil, err
	}
	em.log = log
	return em, nil
}

// emit is the emission sequence for one served transfer: release every
// buffered record the transfer's start has passed, count the transfer,
// hand it to the Transfer sink, buffer a copy of its log record (and of
// its spanning twin) until its end time, and hand the twin's row to the
// Transfer sink too.
//
//lsm:hotpath
func (em *emitter) emit(sv *served) error {
	if err := em.flushThrough(sv.start, false); err != nil {
		return err
	}
	em.res.Transfers++
	em.res.TotalBytes += sv.rec.bytes
	if em.sinks.Transfer != nil {
		if err := em.sinks.Transfer(sv.transfer); err != nil {
			return err
		}
	}
	if em.log != nil {
		if _, err := em.pending.push(&sv.rec); err != nil {
			return err
		}
		if sv.span > 0 {
			twin, err := em.pending.push(&sv.rec)
			if err != nil {
				return err
			}
			twin.duration = sv.span
			twin.bytes = sv.span * 1000
		}
	}
	if sv.span > 0 {
		em.res.Injected++
		if em.sinks.Transfer != nil {
			// The twin as its log line parses: the same end, every other
			// field the genuine row's.
			twin := sv.transfer
			twin.Start = sv.rec.end - sv.span
			twin.Duration = sv.span
			twin.Bytes = sv.span * 1000
			return em.sinks.Transfer(twin)
		}
	}
	return nil
}

// finish releases the records still buffered and returns the summary;
// a run that served nothing is an error.
func (em *emitter) finish(peak int) (*StreamResult, error) {
	if em.res.Transfers == 0 {
		return nil, fmt.Errorf("%w: empty workload", ErrBadConfig)
	}
	if err := em.flushThrough(0, true); err != nil {
		return nil, err
	}
	em.res.PeakConcurrency = peak
	return &em.res, nil
}

// flushThrough releases (and recycles) every buffered record whose end
// time is at or before the start watermark — no still-active transfer
// can end earlier — or everything when all is set.
func (em *emitter) flushThrough(start int64, all bool) error {
	p := &em.pending
	limit := uint64(math.MaxUint64)
	if !all {
		limit = p.through(start)
	}
	for {
		slot, ok := p.pop(limit)
		if !ok {
			return nil
		}
		p.free = append(p.free, slot)
		if err := em.release(&p.slots[slot]); err != nil {
			return err
		}
	}
}

// served is one transfer's complete serving outcome, by value: the
// trace record (populated only when the run has a Transfer sink), the
// log record, the start, and — for the rare Section 2.4 injection — the
// duration of a corrupt spanning twin, which the emitter makes from the
// record.
type served struct {
	transfer trace.Transfer
	rec      logRecord
	start    int64
	span     int64 // the spanning twin's duration; 0 when none was injected
}

// logRecord is one log line as numbers: the transfer's end (seconds
// past the epoch), every count the line prints, the object and client
// indices and the client's row, which the line's identity and
// environment columns are rendered from.
type logRecord struct {
	end      int64
	duration int64
	bytes    int64
	bw       int64
	loss     int64
	cpu      float64
	object   int
	client   int32
	row      gismo.ClientRow
}

// eventServer computes one transfer's server-model outcome from the
// event alone (plus the concurrency level admission observed). Each
// serve reseeds a splitmix source with the event's derived seed, so
// the draws are a pure function of (seed, Session, Seq) — the property
// that makes the log independent of how the stream was generated. Not
// safe for concurrent use.
type eventServer struct {
	pop     *gismo.Population
	root    uint64
	src     *dist.SplitMix64
	rng     *rand.Rand
	horizon int64
	injectP float64
	rows    *rowIDs // non-nil exactly when the run has a Transfer sink
}

func newEventServer(cfg *Config, pop *gismo.Population, horizon int64, seed uint64, rows *rowIDs) *eventServer {
	src := dist.NewSplitMix64(0)
	return &eventServer{
		pop:     pop,
		root:    dist.Mix64(seed, serveLane),
		src:     src,
		rng:     rand.New(src),
		horizon: horizon,
		injectP: float64(cfg.SpanningPerMillion) / 1_000_000,
		rows:    rows,
	}
}

// serve computes the outcome of one event at the given concurrency
// level into *sv (overwritten entirely; an out-param so the hot loop
// copies no large struct). The draw order (CPU, bandwidth, loss,
// injection) is fixed — it is part of the deterministic-serve
// contract — and every draw is made regardless of which sinks exist,
// so the outcome never depends on who is listening. Only the trace
// record is skipped for a run without a Transfer sink; the log record
// is numbers and always made.
//
//lsm:hotpath
func (es *eventServer) serve(ev workload.Event, conc int, sv *served) {
	es.src.Seed(int64(dist.Mix64(dist.Mix64(es.root, uint64(ev.Session)), uint64(ev.Seq))))
	row := es.pop.Row(ev.Client)
	cpu := cpuAt(conc, es.rng)
	bw, congested := drawBandwidth(gismo.AccessClasses[row.Access].Bps, es.rng)
	payload := min(bw, encodingBps)
	bytes := payload * ev.Duration / 8
	loss := drawLoss(ev.Duration, congested, es.rng)

	// admission has checked that client and object fit their fields.
	*sv = served{start: ev.Start, rec: logRecord{
		end:      ev.End(),
		duration: ev.Duration,
		bytes:    bytes,
		bw:       bw,
		loss:     loss,
		cpu:      cpu,
		object:   ev.Object,
		client:   int32(ev.Client),
		row:      row,
	}}
	if rows := es.rows; rows != nil {
		sv.transfer = trace.Transfer{
			Start:     ev.Start,
			Duration:  ev.Duration,
			Bytes:     bytes,
			Bandwidth: bw,
			ServerCPU: cpu,
			Client:    int32(ev.Client),
			IP:        rows.ip[ev.Client],
			AS:        uint32(row.AS) + 1,
			Country:   rows.country[ev.Client],
			Object:    uint16(ev.Object),
		}
	}

	// Section 2.4 multi-harvest artifacts: with probability
	// SpanningPerMillion/1e6 the record gains a corrupt twin whose
	// duration exceeds the trace period.
	if es.injectP > 0 && es.rng.Float64() < es.injectP {
		sv.span = es.horizon + int64(es.rng.IntN(1_000_000)) + 1
	}
}

// pendingRecords is the reorder buffer of not-yet-released log records:
// the records by value in a slot pool, and a monotone radix queue of
// their slots keyed by (transfer end, admission order) packed into one
// key, end − base above 32 bits of seq, base the run's first start. The
// admission order makes the release order — and therefore the log
// bytes — fully deterministic under timestamp ties. A slot returns to
// the freelist as its record is released, so the pool grows to the
// buffer's high-water mark (~peak concurrency), not to the transfer
// count.
//
// The queue's precondition — no key below the last one released —
// holds for every record that ends after the watermark, the start the
// buffer was last flushed through: every record released so far ended
// at or before it. A record that ends at or before it (Duration ≤ 0,
// only from a stream that is not a generator's) is held outside the
// queue instead, with its spanning twin, which shares its end. It
// precedes everything queued, whose ends are past the watermark, and
// the next flush releases it first; until then no other record is
// pushed, so at most those two are held.
type pendingRecords struct {
	queue     heapx.Radix
	held      []int32 // slots of records that end at or before the watermark, in admission order
	based     bool    // base and watermark are set: a flush has run
	base      int64   // the first start flushed through; keys count ends from it
	watermark int64   // the start last flushed through
	seq       uint64  // admission order of the next record pushed
	slots     []logRecord
	free      []int32
}

// maxKeyPart is the bound of both halves of a reorder key: an end past
// the base, and an admission order.
const maxKeyPart = 1 << 32

// push buffers a copy of *r until the start watermark passes its end,
// and returns the copy. It refuses a record whose key does not fit:
// one ending 2³² s or more past the run's first start, or the 2³²nd
// record of a run.
//
//lsm:hotpath
func (p *pendingRecords) push(r *logRecord) (*logRecord, error) {
	seq := p.seq
	held := r.end <= p.watermark
	if !held && (uint64(r.end-p.base) >= maxKeyPart || seq >= maxKeyPart) {
		return nil, p.unkeyable(r)
	}
	p.seq++
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		slot = int32(len(p.slots))
		p.slots = append(p.slots, logRecord{})
	}
	p.slots[slot] = *r
	if held {
		p.held = append(p.held, slot)
	} else {
		p.queue.Push(uint64(r.end-p.base)<<32|seq, slot)
	}
	return &p.slots[slot], nil
}

// unkeyable is push's error for a record it cannot key.
func (p *pendingRecords) unkeyable(r *logRecord) error {
	return fmt.Errorf("%w: log record %d, ending at %d s, has no reorder key: at most 2^32 records, ending under 2^32 s past the first start %d",
		ErrBadConfig, p.seq, r.end, p.base)
}

// through moves the watermark to start and returns the limit of the
// keys a flush through it releases: every record ending at or before
// start. The first call sets the base.
func (p *pendingRecords) through(start int64) uint64 {
	if !p.based {
		p.base, p.based = start, true
	}
	p.watermark = start
	if d := uint64(start - p.base); d < maxKeyPart {
		return d<<32 | (maxKeyPart - 1)
	}
	return math.MaxUint64
}

// pop removes the slot of the next record to release under limit: a
// held record first, then the queue's least key if it is at most
// limit.
//
//lsm:hotpath
func (p *pendingRecords) pop(limit uint64) (int32, bool) {
	if len(p.held) > 0 {
		slot := p.held[0]
		p.held = append(p.held[:0], p.held[1:]...)
		return slot, true
	}
	_, slot, ok := p.queue.PopAtMost(limit)
	return slot, ok
}

// RunStreamSharded is RunStream; lanes is ignored. It remains for
// callers written against the former laned serve driver.
//
//lsm:keep -- benchmark/layers/simulate.go probe; ROADMAP item 4 deletes
func RunStreamSharded(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, lanes int, sinks StreamSinks) (*StreamResult, error) {
	return RunStream(src, pop, horizon, cfg, seed, sinks)
}

// DefaultServeLanes is the lane count RunStreamSharded ignores: one,
// the number of serve goroutines RunStream runs.
func DefaultServeLanes() int { return 1 } //lsm:keep -- benchmark/layers/pipeline.go probe; ROADMAP item 4 deletes
