package gismo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/heapx"
	"repro/internal/ring"
	"repro/internal/workload"
)

// Seed-derivation lanes (DESIGN.md, shard-seeding scheme). Every random
// decision in a streamed generation is keyed to (seed, lane) — or, for
// session bodies, to (seed, session index) — so the emitted event
// sequence is a pure function of the seed, independent of the shard
// count and of goroutine scheduling.
const (
	laneRate       uint64 = 0 // day factors, ramp, event schedule
	lanePopulation uint64 = 1 // client placement and environment
	laneArrivals   uint64 = 2 // Poisson thinning
	laneSessions   uint64 = 3 // root for per-session body streams
	laneInterest   uint64 = 4 // root for per-session interest draws
)

const (
	// streamBatch is the number of events per slab — the unit a shard
	// hands to the merge layer per ring operation.
	streamBatch = 512
	// streamBatchDepth is the per-shard output-ring depth, bounding how
	// far a fast shard can run ahead of the merge point before it
	// parks.
	streamBatchDepth = 4
	// recycleDepth is the per-shard recycle-ring depth: drained slabs
	// flow back to their producing shard through it, so steady-state
	// generation allocates no slabs at all. It covers every slab that
	// can be in flight (output ring + the shard's fill slab + the
	// consumer's drain slab); a slab that finds the ring full falls to
	// the garbage collector.
	recycleDepth = streamBatchDepth + 4
	// MaxShards bounds the shard count.
	MaxShards = 1024
)

// WorkloadStream is the generator: the Section 6 generative model (its
// steps are listed on GenerateSeeded), emitted as a time-ordered event
// stream whose working set is the arrival schedule (about a byte per
// session) plus a 48-byte cursor per active session — never the
// materialized request slice.
//
// The global arrival schedule — the Poisson thinning, the inherently
// serial sliver of the work — is drawn from the seed's arrival lane by
// a producer goroutine of its own while the shards already walk it:
// the producer appends varint gaps to one buffer and publishes, every
// few thousand sessions, how many whole gaps it holds, and a shard that
// reaches the published end parks until more is published (type
// schedule). The producer waits on nothing — not a shard, not the
// merge, not a ring — so it always runs to its end, and a shard's wait
// always ends. Each of K shards walks that shared schedule; a
// session's interest variate comes from a counter-mode splitmix draw
// keyed by (seed, session index), so any shard can compute it in
// O(1), and ownership is the variate's K-quantile band: clients are
// partitioned across shards in contiguous interest-weight bands, each
// carrying ~1/K of the sessions, and only the owner pays the O(log N)
// Zipf inversion. An owned session is a cursor over its per-session
// splitmix RNG: each transfer is drawn when the one before it is
// released, which happens once the schedule walk guarantees nothing
// earlier can appear.
//
// Each shard emits 512-event slabs over a bounded SPSC ring
// (internal/ring) — park/wake backpressure, no channel scheduling —
// and drained slabs return to their producing shard over a recycle
// ring, so steady-state generation allocates nothing at the seam. Next
// merges the K ordered shard outputs back into the (Start, Session,
// Seq) total order, byte-identical for every shard count.
type WorkloadStream struct {
	model      Model
	seed       int64
	shards     int
	pop        *Population
	sched      *schedule
	rings      []shardRings
	cursors    []mergeCursor // Next()'s K-way merge state; nil until the first call
	done       chan struct{}
	closed     atomic.Bool
	slabAllocs atomic.Int64 // fresh slab allocations (recycle misses)
}

// shardRings is one shard's seam to the merge layer: filled slabs flow
// consumer-ward on out, drained slab backing arrays flow back on rec.
type shardRings struct {
	out *ring.SPSC[[]workload.Event]
	rec *ring.SPSC[[]workload.Event]
}

// mergeCursor walks one shard's slab sequence for the Next() merge.
// The head event is cached inline so the loop-min scan — the hottest
// comparison of the event-at-a-time path — never chases the slab.
type mergeCursor struct {
	hd    workload.Event
	slab  []workload.Event
	pos   int
	shard int
}

// NewStream validates the model and starts the sharded generator: the
// schedule's producer and the population build first, each on a
// goroutine of its own, then the samplers and the shards. It returns
// once the population is built, so it blocks for the longer of the
// population build and the sampler tables, not for the thinning pass.
// A spec whose expected session count, six standard deviations
// included, does not fit a session index is refused here, before any
// of it is drawn. Callers must either drain the stream or Close it.
func NewStream(m Model, seed int64, shards int) (*WorkloadStream, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadModel, shards)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	pp, err := m.arrivalProcess(seed)
	if err != nil {
		return nil, err
	}
	mean := pp.ExpectedCount(float64(m.Horizon))
	if err := checkExpectedSessions(mean); err != nil {
		return nil, err
	}

	ws := &WorkloadStream{
		model:  m,
		seed:   seed,
		shards: shards,
		sched:  newSchedule(),
		done:   make(chan struct{}),
	}
	// One pass of Poisson thinning fixes every session's arrival
	// instant; the shards walk it as it is drawn.
	arrRng := rand.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), laneArrivals)))
	go ws.sched.draw(pp.Stream(arrRng, float64(m.Horizon)), scheduleHint(mean, m.Horizon))
	// The population draws from its own seed lane and the shards never
	// touch it (only the serve side does), so it is built beside the
	// thinning pass, the sampler tables and the shards.
	type popOutcome struct {
		pop *Population
		err error
	}
	popCh := make(chan popOutcome, 1)
	go func() {
		popRng := randv2.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), lanePopulation)))
		pop, err := NewPopulation(m.NumClients, m.Topology, popRng)
		popCh <- popOutcome{pop, err}
	}()

	err = ws.startShards()
	outcome := <-popCh
	if err == nil {
		err = outcome.err
	}
	if err != nil {
		ws.Close() // stop the producer and the shards already running
		return nil, err
	}
	ws.pop = outcome.pop
	return ws, nil
}

// startShards builds the samplers the shards share and starts the
// shards, which walk the schedule as it is published.
func (ws *WorkloadStream) startShards() error {
	m := &ws.model
	interest, err := dist.NewZipf(m.Interest.Alpha, m.Interest.N)
	if err != nil {
		return err
	}
	perSession, err := dist.NewZipf(m.TransfersPerSession.Alpha, m.TransfersPerSession.N)
	if err != nil {
		return err
	}
	gap, err := m.gapSampler()
	if err != nil {
		return err
	}
	length, err := m.lengthSampler()
	if err != nil {
		return err
	}
	ws.rings = make([]shardRings, ws.shards)
	for s := range ws.rings {
		ws.rings[s] = shardRings{
			out: ring.NewSPSC[[]workload.Event](streamBatchDepth, ring.NewGate(), ring.NewGate()),
			rec: ring.NewSPSC[[]workload.Event](recycleDepth, ring.NewGate(), ring.NewGate()),
		}
		go ws.runShard(s, ws.rings[s], interest, perSession, gap, length)
	}
	return nil
}

// arrivalProcess is the session arrival process under seed: the
// model's profile composed with the rate lane's day factors, ramp and
// event schedule, stationary within PoissonWindow.
func (m *Model) arrivalProcess(seed int64) (*dist.PiecewisePoisson, error) {
	profile, err := m.profile()
	if err != nil {
		return nil, err
	}
	rateRng := rand.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), laneRate)))
	rateFn, err := m.effectiveRate(profile.Rate, rateRng)
	if err != nil {
		return nil, err
	}
	return dist.NewPiecewisePoisson(rateFn, m.PoissonWindow)
}

// maxScheduleHint caps the capacity a schedule is made with (16 MB of
// gaps, ten times the paper's 1.5 M sessions): a spec whose rate ×
// horizon is absurd gets a schedule that grows as it fills, not a
// panic in make.
const maxScheduleHint = 1 << 24

// scheduleHint sizes the arrival schedule once, so append never has to
// double a multi-megabyte array (and hold the old and new copies at
// once): a byte per arrival — the Poisson count's mean plus six
// standard deviations — plus the longer gaps' extra bytes. A varint
// gap takes a byte per seven bits, and the gaps sum to at most the
// horizon, so at most horizon/2⁷ of them take a second byte, at most
// horizon/2¹⁴ a third, and so on: horizon/127 bytes bound them all.
func scheduleHint(mean float64, horizon int64) int {
	hint := mean + 6*math.Sqrt(mean) + 16 + float64(horizon)/127
	if !(hint < maxScheduleHint) { // also NaN
		return maxScheduleHint
	}
	return int(hint)
}

// maxSessions bounds a schedule: a session index must fit the low 32
// bits of cursorKey.
const maxSessions = 1 << 32

// checkSessions refuses a schedule of n sessions that cursorKey cannot
// number.
func checkSessions(n int) error {
	if uint64(n) >= maxSessions {
		return fmt.Errorf("%w: %d sessions in the schedule, at most %d", ErrBadModel, n, maxSessions-1)
	}
	return nil
}

// checkExpectedSessions refuses, before anything is drawn, a schedule
// whose expected count mean, plus six standard deviations, reaches
// maxSessions: such a spec would first fill gigabytes of schedule and
// then fail. The producer still checks the exact count (publish).
func checkExpectedSessions(mean float64) error {
	if hi := mean + 6*math.Sqrt(mean); !(hi < maxSessions) { // also NaN
		return fmt.Errorf("%w: %.4g sessions expected in the schedule (six standard deviations included), at most %d", ErrBadModel, hi, maxSessions-1)
	}
	return nil
}

// publishEvery is how many arrivals the producer draws between two
// publishes of the schedule. It divides 2³², so the first publish past
// the session bound is the one at the bound, and no unkeyable session
// index is ever published.
const publishEvery = 4096

// errClosedEarly is the error of a schedule whose stream was closed
// before the thinning pass ended: its count is of a prefix.
var errClosedEarly = errors.New("gismo: stream closed before its schedule was drawn")

// schedule is the arrival schedule while it is drawn: varint gaps
// between consecutive arrival seconds (the first from 0) that one
// producer (draw) appends and any number of readers (scheduleReader)
// decode. The producer publishes gaps, a prefix of its buffer holding
// whole gaps only, under mu; it writes only past what it has published,
// and when it outgrows the buffer it publishes the grown copy with the
// new length, so a reader that picked up a prefix reads bytes nothing
// writes any more. The producer never waits for a reader, so a reader
// parked on cond is always woken: by the next publish, by the draw's
// end or by Close.
type schedule struct {
	mu      sync.Mutex
	cond    sync.Cond // L is &mu
	gaps    []byte    // the published prefix
	n       int       // arrivals in gaps
	done    bool      // the producer has returned; err says how
	stopped bool      // Close was called: stop at the next publish
	err     error
}

func newSchedule() *schedule {
	s := &schedule{}
	s.cond.L = &s.mu
	return s
}

// draw is the producer: it drains the thinning pass into a buffer made
// with capacity hint, publishing every publishEvery arrivals and once
// at the end; a short hint costs growth, never arrivals. It returns at
// the end of the pass, at the publish after stop, or at the publish
// whose count no session index can hold.
func (s *schedule) draw(arrivals *dist.PoissonStream, hint int) {
	buf := make([]byte, 0, hint)
	var prev int64
	for n := 1; ; n++ {
		at, ok := arrivals.Next()
		if !ok {
			s.publish(buf, n-1, true)
			return
		}
		t := int64(at)
		buf = binary.AppendUvarint(buf, uint64(t-prev))
		prev = t
		if n%publishEvery == 0 && !s.publish(buf, n, false) {
			return
		}
	}
}

// publish makes the first n arrivals, gaps, visible to the readers and
// ends the draw when last; false means the draw is to stop.
func (s *schedule) publish(gaps []byte, n int, last bool) bool {
	err := checkSessions(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cond.Broadcast()
	switch {
	case s.stopped && !last:
		s.done, s.err = true, errClosedEarly
	case err != nil:
		s.done, s.err = true, err
	default:
		s.gaps, s.n, s.done = gaps, n, last
	}
	return !s.done
}

// wait returns the published gaps once they are longer than have
// bytes, the draw has ended, or the stream is closed; false means the
// reader is to stop: the stream was closed or the draw failed.
func (s *schedule) wait(have int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.gaps) == have && !s.done && !s.stopped {
		s.cond.Wait()
	}
	return s.gaps, !s.stopped && s.err == nil
}

// stop asks the producer to stop at its next publish and wakes every
// parked reader.
func (s *schedule) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// count waits for the producer to return and gives the number of
// arrivals drawn and how the draw ended.
func (s *schedule) count() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.done {
		s.cond.Wait()
	}
	return s.n, s.err
}

// scheduleReader walks a schedule as it is drawn, one arrival at a
// time, parking at the published end.
type scheduleReader struct {
	s    *schedule
	gaps []byte // the prefix picked up last
	pos  int
	idx  int // arrivals read
	at   int64
	cut  bool // the walk stopped before the schedule's end
}

// next returns the next arrival's index and second; false at the
// schedule's end, or (cut) when the stream was closed or the draw
// failed first.
func (r *scheduleReader) next() (idx int, at int64, ok bool) {
	if r.pos == len(r.gaps) {
		var live bool
		if r.gaps, live = r.s.wait(r.pos); !live {
			r.cut = true
			return 0, 0, false
		}
		if r.pos == len(r.gaps) {
			return 0, 0, false
		}
	}
	delta, w := binary.Uvarint(r.gaps[r.pos:])
	r.pos += w
	r.at += int64(delta)
	r.idx++
	return r.idx - 1, r.at, true
}

// interestUniform is session idx's interest variate in [0, 1): the
// counter-mode splitmix stream of the seed's interest lane evaluated at
// idx. Pure and O(1), so every shard can test ownership without
// replaying a sequential RNG.
func interestUniform(interestRoot uint64, idx int) float64 {
	return float64(dist.Mix64(interestRoot, uint64(idx))>>11) / (1 << 53)
}

// Next implements workload.Stream: the event-at-a-time K-way merge
// over the shard rings. The loop-min scan beats heap bookkeeping at
// merge widths this small, and the slab cursors amortize the ring
// traffic to one pop per 512 events.
//
//lsm:hotpath
func (ws *WorkloadStream) Next() (workload.Event, bool) {
	if ws.closed.Load() {
		return workload.Event{}, false
	}
	if ws.cursors == nil {
		ws.initCursors()
	}
	n := len(ws.cursors)
	if n == 0 {
		return workload.Event{}, false
	}
	best := 0
	for i := 1; i < n; i++ {
		if ws.cursors[i].hd.Less(ws.cursors[best].hd) {
			best = i
		}
	}
	e := ws.cursors[best].hd
	ws.advanceCursor(best)
	return e, true
}

// initCursors primes the merge with each live shard's first slab.
func (ws *WorkloadStream) initCursors() {
	ws.cursors = make([]mergeCursor, 0, ws.shards)
	for s := 0; s < ws.shards; s++ {
		if slab, ok := ws.popSlab(s); ok {
			ws.cursors = append(ws.cursors, mergeCursor{hd: slab[0], slab: slab, shard: s})
		}
	}
}

// advanceCursor steps cursor i past its head: forward within the slab,
// or — at a slab boundary — recycle the drained slab to its shard and
// pull the next one, dropping the cursor when the shard is exhausted.
//
//lsm:hotpath
func (ws *WorkloadStream) advanceCursor(i int) {
	c := &ws.cursors[i]
	c.pos++
	if c.pos < len(c.slab) {
		c.hd = c.slab[c.pos]
		return
	}
	shard := c.shard
	ws.rings[shard].rec.TryPush(c.slab[:0])
	if slab, ok := ws.popSlab(shard); ok {
		c.slab, c.pos, c.hd = slab, 0, slab[0]
		return
	}
	last := len(ws.cursors) - 1
	ws.cursors[i] = ws.cursors[last]
	ws.cursors = ws.cursors[:last]
}

// popSlab pulls the shard's next non-empty slab, parking until the
// shard produces one; false means the shard closed (or the stream was
// closed under the waiter).
func (ws *WorkloadStream) popSlab(s int) ([]workload.Event, bool) {
	for {
		slab, ok := ws.rings[s].out.Pop(ws.done)
		if !ok {
			return nil, false
		}
		if len(slab) > 0 {
			return slab, true
		}
		ws.rings[s].rec.TryPush(slab[:0])
	}
}

// Close releases the shard goroutines of a stream that will not be
// drained, and stops the schedule's producer at its next publish. It
// is idempotent; draining to exhaustion makes it a no-op.
func (ws *WorkloadStream) Close() {
	if ws.closed.CompareAndSwap(false, true) {
		close(ws.done)
		ws.sched.stop()
	}
}

// Population returns the generated client population.
func (ws *WorkloadStream) Population() *Population { return ws.pop }

// Sessions waits for the arrival schedule to be drawn and returns the
// number of generated sessions (client arrivals). The error is
// ErrBadModel when the schedule outgrew what a session index can
// number (the stream then ended early) and an error too when the
// stream was closed before the schedule was drawn.
func (ws *WorkloadStream) Sessions() (int, error) { return ws.sched.count() }

// runShard generates the events of the sessions owned by shard s, in
// stream order, batching them into slabs on the shard's output ring.
// Slabs come from the recycle ring when the consumer has returned any
// (the steady state — zero allocations) and are freshly allocated
// otherwise (cold start, or a consumer that dropped one).
func (ws *WorkloadStream) runShard(s int, rr shardRings, interest, perSession *dist.Zipf, gap, length dist.Lognormal) {
	defer rr.out.Close()
	sessionRoot := dist.Mix64(uint64(ws.seed), laneSessions)
	interestRoot := dist.Mix64(uint64(ws.seed), laneInterest)
	interestTotal := interest.Total()
	sd := newSessionDraws(&ws.model, perSession, gap, length)

	var pending cursorQueue
	newSlab := func() []workload.Event {
		if slab, ok := rr.rec.TryPop(); ok {
			return slab
		}
		ws.slabAllocs.Add(1)
		return make([]workload.Event, 0, streamBatch)
	}
	batch := newSlab()
	flushBatch := func() bool {
		if !rr.out.Push(batch, ws.done) {
			return false // closed under us; the slab falls to the GC
		}
		batch = newSlab()
		return true
	}
	// release emits, in stream order, every pending head whose key is at
	// most limit, drawing each session's next transfer as its head goes;
	// false means the stream was closed under it.
	release := func(limit uint64) bool {
		for {
			_, slot, ok := pending.q.PopAtMost(limit)
			if !ok {
				return true
			}
			batch = append(batch, pending.slots[slot].head())
			if len(batch) == streamBatch && !flushBatch() {
				return false
			}
			pending.advance(sd, slot)
		}
	}

	r := scheduleReader{s: ws.sched}
	for {
		idx, at, ok := r.next()
		if !ok {
			break
		}
		// Release pending events that precede the next arrival: no
		// later session can produce anything earlier. No pending key
		// equals the arrival's, whose session is not open yet.
		if !release(cursorKey(at, idx)) {
			return
		}
		u := interestUniform(interestRoot, idx)
		if owner := int(u * float64(ws.shards)); owner == s ||
			(owner >= ws.shards && s == ws.shards-1) { // guard float rounding at u→1
			client := interest.RankOfU(u*interestTotal) - 1
			if c, ok := sd.open(dist.Mix64(sessionRoot, uint64(idx)), idx, client, at); ok {
				pending.push(c)
			}
		}
	}
	if r.cut {
		return
	}
	if !release(math.MaxUint64) {
		return
	}
	if len(batch) > 0 {
		flushBatch()
	}
}

// cursor is one pending session: its head event and the session RNG's
// state after the head's draws — everything the rest of the session
// depends on, so the next transfer is drawn when the head is released
// instead of the whole session being expanded at arrival. Events within
// a session are in stream order by construction (gaps are
// non-negative, Seq increases), and no two cursors share a session, so
// (start, session) orders the pending heads. A pending session costs
// its shard 48 bytes: Model.Validate bounds every int32 field (client
// < NumClients, object < NumObjects, seq and left <
// TransfersPerSession.N).
type cursor struct {
	start    int64 // head event's Start
	session  int   // the session every event of this cursor belongs to
	duration int64 // head event's Duration
	rng      dist.SplitMix64
	client   int32
	seq      int32 // head event's Seq
	left     int32 // transfers still to draw after the head
	object   int32
}

// A client id must fit cursor.client.
const _ = int32(MaxClients - 1)

// head returns the cursor's current event.
func (c *cursor) head() workload.Event {
	return workload.Event{
		Session:  c.session,
		Seq:      int(c.seq),
		Client:   int(c.client),
		Object:   int(c.object),
		Start:    c.start,
		Duration: c.duration,
	}
}

// cursorKey packs a head at (start, session) into one key ordered as
// the stream orders heads of different sessions. Model.Validate holds
// start below 2³¹ and NewStream the session index below 2³², so the
// key is unique and never wraps.
func cursorKey(start int64, session int) uint64 {
	return uint64(start)<<32 | uint64(session)
}

// cursorQueue is a shard's pending sessions: the cursors by value in a
// slot pool, and a monotone radix queue of their slots keyed by head
// (cursorKey). A slot returns to the freelist when its session ends,
// so the pool grows to the shard's most sessions open at once. The
// queue's precondition holds by construction: a session's next head
// starts no earlier than the head just released, and a session is
// opened only once every head before its arrival has been released.
type cursorQueue struct {
	q     heapx.Radix
	slots []cursor
	free  []int32
}

// push queues c under its head.
//
//lsm:hotpath
func (cq *cursorQueue) push(c cursor) {
	var slot int32
	if n := len(cq.free); n > 0 {
		slot = cq.free[n-1]
		cq.free = cq.free[:n-1]
	} else {
		slot = int32(len(cq.slots))
		cq.slots = append(cq.slots, cursor{})
	}
	cq.slots[slot] = c
	cq.q.Push(cursorKey(c.start, c.session), slot)
}

// advance consumes the head of the popped cursor in slot: draws the
// session's next transfer into it in place and queues it again, or
// frees the slot when the session has none left inside the horizon.
//
//lsm:hotpath
func (cq *cursorQueue) advance(sd *sessionDraws, slot int32) {
	if c := &cq.slots[slot]; sd.step(c) {
		cq.q.Push(cursorKey(c.start, c.session), slot)
		return
	}
	cq.free = append(cq.free, slot)
}

// sessionDraws is a shard's session-body sampler. It owns one splitmix
// source, which a cursor's saved state is copied into before a draw and
// back out of after it, so a pending session costs its 8 bytes of RNG
// state and not a source of its own.
type sessionDraws struct {
	m           *Model
	src         *dist.SplitMix64
	rng         *rand.Rand
	perSession  *dist.Zipf
	gap, length dist.Lognormal
}

func newSessionDraws(m *Model, perSession *dist.Zipf, gap, length dist.Lognormal) *sessionDraws {
	src := dist.NewSplitMix64(0)
	return &sessionDraws{m: m, src: src, rng: rand.New(src), perSession: perSession, gap: gap, length: length}
}

// open seeds the source with the session's seed and draws a session
// arriving at start: its transfer count (Zipf), then its first
// transfer. false means the session has no transfer inside the
// horizon.
func (sd *sessionDraws) open(seed uint64, session, client int, start int64) (cursor, bool) {
	sd.src.Seed(int64(seed))
	n := sd.perSession.SampleRank(sd.rng)
	c := cursor{session: session, client: int32(client), left: int32(n - 1)}
	return c, sd.transfer(&c, start)
}

// step draws c's next transfer — the gap from the head, then the
// transfer itself — from c's saved RNG state. false means the session
// is exhausted: its count is used up, or the transfer falls outside
// the horizon.
//
//lsm:hotpath
func (sd *sessionDraws) step(c *cursor) bool {
	if c.left == 0 {
		return false
	}
	c.left--
	c.seq++
	*sd.src = c.rng
	return sd.transfer(c, c.start+int64(sd.gap.Sample(sd.rng)))
}

// transfer draws the transfer starting at t — its length (lognormal,
// clamped to at least a second and truncated at the horizon), then its
// object — into c's head and saves the RNG state. The per-transfer
// draw order (gap, length, object) and the truncation are part of the
// generated bytes: TestSessionCursorMatchesExpand holds them to the
// whole-session expansion in oracle_test.go.
//
//lsm:hotpath
func (sd *sessionDraws) transfer(c *cursor, t int64) bool {
	horizon := sd.m.Horizon
	if t >= horizon {
		return false
	}
	d := int64(sd.length.Sample(sd.rng))
	if d < 1 {
		d = 1
	}
	if t+d > horizon {
		d = horizon - t
		if d < 1 {
			return false
		}
	}
	c.start, c.duration = t, d
	c.object = int32(sd.m.pickObject(sd.rng))
	c.rng = *sd.src
	return true
}

// DefaultShards is the shard count for callers with no reason to pick
// one: one per CPU, capped. The stream is shard-count-invariant, so
// this only affects speed, never output.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}
