package layers

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gismo"
	"repro/internal/liveserver"
	"repro/internal/simulate"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// LiveSession is the script of one client connection: HELLO as Player,
// one tagged transfer per event, QUIT.
type LiveSession struct {
	Player string
	URIs   []string
	Events []workload.Event
}

// LiveSessions draws session shapes — transfers per connection, object
// per transfer — from the head of a generated stream, grouped by
// session with times ignored, so the paper's Zipf transfers-per-session
// law drives the dial churn.
func LiveSessions(sizes Sizes, seed int64) ([]LiveSession, error) {
	m, err := gismo.Scaled(sizes.LiveScale, sizes.LiveDays)
	if err != nil {
		return nil, err
	}
	ws, err := gismo.NewStream(m, seed, 1)
	if err != nil {
		return nil, err
	}
	defer ws.Close()
	var out []LiveSession
	index := make(map[int]int)
	for n := 0; n < sizes.LiveEvents; n++ {
		ev, ok := ws.Next()
		if !ok {
			break
		}
		i, seen := index[ev.Session]
		if !seen {
			i = len(out)
			index[ev.Session] = i
			out = append(out, LiveSession{Player: fmt.Sprintf("player-%07d", ev.Client)})
		}
		out[i].URIs = append(out[i].URIs, simulate.ObjectURI(ev.Object))
		out[i].Events = append(out[i].Events, ev)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("live sessions: scale %g over %d days generated no events", sizes.LiveScale, sizes.LiveDays)
	}
	return out, nil
}

// TakeRound returns the next sessions carrying at least n transfers,
// cycling through the list, and the advanced cursor.
func TakeRound(sessions []LiveSession, cursor, n int) ([]LiveSession, int) {
	var round []LiveSession
	for got := 0; got < n; cursor++ {
		s := sessions[cursor%len(sessions)]
		round = append(round, s)
		got += len(s.URIs)
	}
	return round, cursor
}

// Live is an in-process liveserver wired the way cmd/lsmserve wires it:
// every completed transfer is rendered by RecordEntry into a
// SyncWriter over a log file and flushed.
type Live struct {
	Server *liveserver.Server
	log    *wmslog.SyncWriter
	file   *os.File
}

// StartLive serves on an ephemeral loopback port with the default
// configuration except the frame interval.
func StartLive(logPath string) (*Live, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	l := &Live{file: f, log: wmslog.NewSyncWriter(wmslog.NewWriter(f))}
	cfg := liveserver.DefaultServerConfig()
	cfg.FrameInterval = LiveFrameInterval
	cfg.Sink = func(r liveserver.TransferRecord) {
		if err := l.log.Write(liveserver.RecordEntry(r)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: live log:", err)
		}
		l.log.Flush()
	}
	if l.Server, err = liveserver.Serve("127.0.0.1:0", cfg); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Close stops the server (draining its handlers), closes the log and
// returns how many records the sink wrote.
func (l *Live) Close() (logged int64, err error) {
	err = l.Server.Close()
	if ferr := l.log.Flush(); err == nil {
		err = ferr
	}
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	return l.log.Count(), err
}

// LiveRound is what the clients saw over one round.
type LiveRound struct {
	Transfers, Failed int
	Wall              time.Duration // round start to the last client finishing
	ClientTime        time.Duration // summed over clients: round start to that client running dry
	Frames            int
	Dial              []time.Duration // Dial call wall, one per session
	Start             []time.Duration // START sent → OK START, one per transfer
	Turnaround        []time.Duration // transfer duration beyond the watch: STOP → END
	FirstErr          error
}

// Round has `clients` goroutines pull sessions from a shared list and
// play each one: Dial, one WatchTagged per transfer, Close. A transfer
// fails on a dial error, a protocol error, ERR busy, or an END that
// disagrees with the bytes and frames the client counted (WatchTagged
// enforces the last).
func (l *Live) Round(t *Tracer, parent int, sessions []LiveSession, clients int) LiveRound {
	var (
		mu   sync.Mutex
		res  LiveRound
		next atomic.Int64
		wg   sync.WaitGroup
	)
	addr := l.Server.Addr()
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own LiveRound
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sessions) {
					break
				}
				playSession(t, parent, addr, sessions[i], &own)
			}
			own.ClientTime = time.Since(begin)
			mu.Lock()
			res.merge(own)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Wall = time.Since(begin)
	return res
}

func playSession(t *Tracer, parent int, addr string, s LiveSession, out *LiveRound) {
	out.Transfers += len(s.URIs)
	span := t.Begin("liveserver.Dial", parent)
	dialed := time.Now()
	c, err := liveserver.Dial(addr, s.Player)
	out.Dial = append(out.Dial, time.Since(dialed))
	t.End(span)
	if err != nil {
		out.fail(len(s.URIs), err)
		return
	}
	for k, uri := range s.URIs {
		span = t.Begin("liveserver.WatchTagged", parent)
		tr, err := c.WatchTagged(uri, int64(s.Events[k].Session), s.Events[k].Seq, LiveWatch)
		t.End(span)
		if err != nil {
			// The connection's protocol state is unknown: the rest of
			// the session is lost with it.
			out.fail(len(s.URIs)-k, err)
			break
		}
		out.Frames += tr.Frames
		out.Start = append(out.Start, tr.StartLatency)
		out.Turnaround = append(out.Turnaround, tr.Duration-LiveWatch)
	}
	span = t.Begin("liveserver.Close", parent)
	c.Close()
	t.End(span)
}

func (r *LiveRound) fail(n int, err error) {
	r.Failed += n
	if r.FirstErr == nil {
		r.FirstErr = err
	}
}

func (r *LiveRound) merge(o LiveRound) {
	r.Transfers += o.Transfers
	r.Failed += o.Failed
	r.ClientTime += o.ClientTime
	r.Frames += o.Frames
	r.Dial = append(r.Dial, o.Dial...)
	r.Start = append(r.Start, o.Start...)
	r.Turnaround = append(r.Turnaround, o.Turnaround...)
	if r.FirstErr == nil {
		r.FirstErr = o.FirstErr
	}
}

// OverheadUS is the per-transfer cost that is not streaming: client
// time per completed transfer minus the watch — amortized dial, HELLO
// and close, the start round trip, and the STOP → END turnaround.
func (r *LiveRound) OverheadUS() float64 {
	done := max(r.Transfers-r.Failed, 1)
	return float64(r.ClientTime.Nanoseconds())/float64(done)/1e3 - float64(LiveWatch.Microseconds())
}

// LiveMetrics reports the client-side distributions of a set of rounds.
func LiveMetrics(rounds []LiveRound, m Metrics) {
	var all LiveRound
	for _, r := range rounds {
		all.merge(r)
	}
	dial, start, turn := durationsUS(all.Dial), durationsUS(all.Start), durationsUS(all.Turnaround)
	m.Set("liveserver.dial_hello_p50_us", Median(dial), "us")
	m.Set("liveserver.dial_hello_p99_us", Quantile(dial, 0.99), "us")
	m.Set("liveserver.start_p50_us", Median(start), "us")
	m.Set("liveserver.start_p99_us", Quantile(start, 0.99), "us")
	m.Set("liveserver.stop_turnaround_p50_us", Median(turn), "us")
	m.Set("liveserver.stop_turnaround_p99_us", Quantile(turn, 0.99), "us")
	m.Set("liveserver.overhead_us", all.OverheadUS(), "us")
	paced := float64(max(len(all.Start), 1)) * float64(LiveWatch/LiveFrameInterval)
	m.Set("liveserver.frames_delivered_share", float64(all.Frames)/paced, "ratio")
}

// ProbeLiveserver plays a short closed loop against a fresh server and
// measures the server's goroutine budget per idle connection.
func ProbeLiveserver(fx *Fixture, m Metrics) error {
	sessions, err := LiveSessions(fx.Sizes, fx.Seed)
	if err != nil {
		return err
	}
	live, err := StartLive(fx.Dir + "/live-probe.log")
	if err != nil {
		return err
	}
	defer live.Close()
	fx.Live, _ = TakeRound(sessions, 0, fx.Sizes.LiveProbe)
	res := live.Round(nil, -1, fx.Live, Clients())
	if res.Failed > 0 {
		return fmt.Errorf("liveserver probe: %d of %d transfers failed: %v", res.Failed, res.Transfers, res.FirstErr)
	}
	LiveMetrics([]LiveRound{res}, m)

	c := Clients()
	before := runtime.NumGoroutine()
	conns := make([]*liveserver.Client, 0, c)
	for i := 0; i < c; i++ {
		conn, err := liveserver.Dial(live.Server.Addr(), fmt.Sprintf("idle-%d", i))
		if err != nil {
			return err
		}
		conns = append(conns, conn)
	}
	// OK HELLO means each handler is up and parked on its next command.
	perConn := float64(runtime.NumGoroutine()-before) / float64(c)
	for _, conn := range conns {
		conn.Close()
	}
	m.Set("liveserver.goroutines_per_conn", perConn, "count")
	return nil
}
