package loadgen

import (
	"cmp"
	"hash/fnv"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/liveserver"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// fleetNode is one in-process liveserver with its heartbeat agent and
// collected log entries.
type fleetNode struct {
	srv   *liveserver.Server
	agent *cluster.Agent

	mu      sync.Mutex
	entries []*wmslog.Entry
}

func (n *fleetNode) logged() []*wmslog.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*wmslog.Entry(nil), n.entries...)
}

// kill simulates a node process dying: server and heartbeat connection
// drop together, as they do when the process is killed.
func (n *fleetNode) kill() {
	n.agent.Close()
	n.srv.Close()
}

// startFleet brings up a redirector and nodes, waiting until every node
// is registered and routable.
func startFleet(t *testing.T, nodes int, policy string) (*cluster.Redirector, []*fleetNode) {
	t.Helper()
	rcfg := cluster.DefaultRedirectorConfig()
	p, err := cluster.NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	rcfg.Policy = p
	rcfg.TTL = 2 * time.Second
	rd, err := cluster.ServeRedirector("127.0.0.1:0", rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })

	out := make([]*fleetNode, nodes)
	for i := range out {
		n := &fleetNode{}
		cfg := liveserver.DefaultServerConfig()
		cfg.FrameBytes = 256
		cfg.FrameInterval = 5 * time.Millisecond
		cfg.MaxConns = 256
		cfg.Sink = func(r liveserver.TransferRecord) {
			e := liveserver.RecordEntry(r)
			n.mu.Lock()
			n.entries = append(n.entries, e)
			n.mu.Unlock()
		}
		srv, err := liveserver.Serve("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.srv = srv
		agent, err := cluster.StartAgent(rd.Addr(), srv.Addr(), 100*time.Millisecond,
			func() (int64, int64) { return srv.ActiveTransfers(), srv.ServedTransfers() })
		if err != nil {
			t.Fatal(err)
		}
		n.agent = agent
		t.Cleanup(func() { agent.Close(); srv.Close() })
		out[i] = n
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(rd.Registry().Alive(time.Now())) != nodes {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d nodes registered", len(rd.Registry().Alive(time.Now())), nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return rd, out
}

// singleSessionEvents builds one well-separated session per client:
// robust to failover-induced start shifts because no intra-session gap
// comes near the timeout. Client starts stagger across spread and
// transfers are gap trace-seconds apart, so with gap large relative to
// spread/clients the sessions overlap — every instant of the replay has
// many clients mid-session.
func singleSessionEvents(clients, transfers int, spread, gap int64) []workload.Event {
	var events []workload.Event
	for c := 0; c < clients; c++ {
		start := int64(c) * spread / int64(clients)
		for k := 0; k < transfers; k++ {
			events = append(events, workload.Event{
				Session:  c,
				Seq:      k,
				Client:   c,
				Object:   (c + k) % 2,
				Start:    start + int64(k)*gap,
				Duration: 100,
			})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Less(events[j]) })
	return events
}

// compareFiltered compares offered-minus-failed against the per-node
// served entries, read into one Served as lsmload -check reads the
// node logs.
func compareFiltered(t *testing.T, events []workload.Event, failed []workload.Event, perNode [][]*wmslog.Entry, res *Result, timeout int64) *analyze.MatchReport {
	t.Helper()
	lost := make(map[[2]int]bool, len(failed))
	for _, ev := range failed {
		lost[[2]int{ev.Session, ev.Seq}] = true
	}
	kept := events[:0:0]
	for _, ev := range events {
		if !lost[[2]int{ev.Session, ev.Seq}] {
			kept = append(kept, ev)
		}
	}
	served, err := newServed(res.Begin, res.Origin, res.Compression, failed)
	if err != nil {
		t.Fatal(err)
	}
	for _, entries := range perNode {
		for _, e := range entries {
			served.add(e)
		}
	}
	// The end-of-transfer race around a node kill: an entry a node
	// committed for an event the client recorded lost, or a
	// double-serve from a successful retry.
	if served.DroppedLost > 0 || served.DroppedDup > 0 {
		t.Logf("reconciled served log: %d recorded-lost entries, %d duplicate serves", served.DroppedLost, served.DroppedDup)
	}
	report, err := Check(kept, served, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// realization digests entry sets as one realization.
func realization(sets ...[]*wmslog.Entry) string {
	var r wmslog.Realization
	for _, entries := range sets {
		for _, e := range entries {
			r.Add(e)
		}
	}
	return r.Digest()
}

// TestFleetClosedLoopMatchesSingleNode is the acceptance loop in
// process: a 3-node fleet behind the hash redirector serves a replayed
// workload with zero losses, the per-node logs read as one served side
// MATCH the offered workload, and the fleet's realization digest equals
// a single-node serve of the same workload.
func TestFleetClosedLoopMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("socket e2e in -short mode")
	}
	events := singleSessionEvents(30, 3, 20000, 500)
	const timeout, compression = 10000, 20000

	rd, nodes := startFleet(t, 3, "hash")
	cfg := fastReplayConfig()
	cfg.Compression = compression
	cfg.MaxConns = 128
	cfg.Frontend = true
	res, err := Replay(rd.Addr(), workload.NewSliceStream(events), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != len(events) {
		t.Fatalf("fleet replay lost transfers: %s", res)
	}
	if res.Redirects == 0 || res.RedirectCacheHits == 0 {
		t.Fatalf("redirect rail silent: %d lookups, %d hits", res.Redirects, res.RedirectCacheHits)
	}

	perNode := make([][]*wmslog.Entry, len(nodes))
	servingNodes := 0
	for i, n := range nodes {
		perNode[i] = n.logged()
		if len(perNode[i]) > 0 {
			servingNodes++
		}
	}
	if servingNodes < 2 {
		t.Fatalf("hash policy routed everything to %d node(s)", servingNodes)
	}
	logged := 0
	for _, entries := range perNode {
		logged += len(entries)
	}
	if logged != len(events) {
		t.Fatalf("the nodes logged %d entries for %d events", logged, len(events))
	}
	report := compareFiltered(t, events, nil, perNode, res, timeout)
	if !report.Match() {
		t.Fatalf("fleet logs do not match offered workload:\n%s", report)
	}

	// Single-node serve of the same workload: same realization digest.
	var mu sync.Mutex
	var single []*wmslog.Entry
	srv := testServer(t, 256, func(r liveserver.TransferRecord) {
		e := liveserver.RecordEntry(r)
		mu.Lock()
		single = append(single, e)
		mu.Unlock()
	})
	scfg := fastReplayConfig()
	scfg.Compression = compression
	scfg.MaxConns = 128
	sres, err := Replay(srv.Addr(), workload.NewSliceStream(events), scfg)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Failed != 0 {
		t.Fatalf("single-node replay lost transfers: %s", sres)
	}
	mu.Lock()
	want := realization(single)
	mu.Unlock()
	if got := realization(perNode...); got != want {
		t.Fatalf("fleet realization %s != single-node realization %s", got, want)
	}
	t.Logf("fleet closed loop:\n%s\n%s", report, res)
}

// TestFleetFailoverReroutesMidRun kills one of three nodes mid-replay:
// transfers re-route through the front-end, the recovery shows up in
// the metrics, and the per-node logs still MATCH the offered workload
// minus exactly the recorded lost events.
func TestFleetFailoverReroutesMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("socket e2e in -short mode")
	}
	// Sessions overlap: 40 clients stagger starts over 3 wall seconds
	// while each session runs ~1.8 wall seconds, so the kill at 1.5 s
	// lands with many clients mid-session — cached routes to the dead
	// node must fail over on their next transfer.
	events := singleSessionEvents(40, 4, 30000, 6000)
	const timeout, compression = 14000, 10000

	rd, nodes := startFleet(t, 3, "hash")
	cfg := fastReplayConfig()
	cfg.Compression = compression
	cfg.MaxConns = 128
	cfg.Frontend = true

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(1500 * time.Millisecond)
		nodes[1].kill()
	}()
	res, err := Replay(rd.Addr(), workload.NewSliceStream(events), cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-killed

	if res.Completed+len(res.FailedEvents) != len(events) {
		t.Fatalf("events unaccounted for: %d completed + %d failed != %d", res.Completed, len(res.FailedEvents), len(events))
	}
	if nodes[1].srv.ServedTransfers() == 0 {
		t.Skip("killed node never served; kill landed before its first route")
	}
	if res.Failovers == 0 && res.Failed == 0 {
		t.Fatal("node died mid-run but neither a failover nor a failure was recorded")
	}

	perNode := make([][]*wmslog.Entry, len(nodes))
	for i, n := range nodes {
		perNode[i] = n.logged()
	}
	report := compareFiltered(t, events, res.FailedEvents, perNode, res, timeout)
	if !report.Match() {
		t.Fatalf("post-failover node logs do not match offered-minus-lost:\n%s\n%s", report, res)
	}
	t.Logf("failover loop: %d failovers, %d lost\n%s", res.Failovers, res.Failed, res)
}

// TestReconcileServed pins the two end-of-transfer races: a
// recorded-lost event whose entry a node had already committed, and a
// duplicate serve from a successful retry, ending in a later second
// or in the same one. The kept serve — the one that ended first, then
// the one whose rendered line has the smaller FNV-1a hash — and the
// counts do not depend on the order the entries come in; untagged
// entries pass through untouched.
func TestReconcileServed(t *testing.T) {
	at := time.Date(2002, 3, 1, 12, 0, 0, 0, time.UTC)
	entry := func(session int64, seq int, end, duration int64) *wmslog.Entry {
		return &wmslog.Entry{
			Timestamp: at.Add(time.Duration(end) * time.Second), ClientIP: "10.0.0.1",
			PlayerID: "p", URIStem: "/u", Duration: duration, Referer: wmslog.SessionRef(session, seq),
		}
	}
	untagged := entry(0, 0, 50, 4)
	untagged.Referer = ""
	entries := []*wmslog.Entry{
		entry(1, 0, 10, 2),
		entry(2, 0, 20, 5), entry(2, 0, 21, 1), // 2.0 served again, a second later
		entry(3, 0, 30, 3),                     // committed but recorded lost
		entry(4, 0, 40, 9), entry(4, 0, 40, 2), // 4.0 served twice in one second
		untagged,
	}
	// The kept rows on the trace clock of a replay that began at at, at
	// compression 1: 2.0's first serve and the serve of 4.0 whose line
	// hashes smaller.
	lineHash := func(e *wmslog.Entry) uint64 {
		h := fnv.New64a()
		h.Write(wmslog.AppendEntry(nil, e))
		return h.Sum64()
	}
	same := trace.Transfer{Start: 31, Duration: 9}
	if lineHash(entries[5]) < lineHash(entries[4]) {
		same = trace.Transfer{Start: 38, Duration: 2}
	}
	want := []trace.Transfer{{Start: 8, Duration: 2}, {Start: 15, Duration: 5}, same, {Start: 46, Duration: 4}}
	failed := []workload.Event{{Session: 3, Seq: 0}}
	reversed := slices.Clone(entries)
	slices.Reverse(reversed)
	for _, order := range [][]*wmslog.Entry{entries, reversed} {
		served, err := newServed(at, 0, 1, failed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range order {
			served.add(e)
		}
		if served.DroppedLost != 1 || served.DroppedDup != 2 {
			t.Fatalf("dropped lost=%d dup=%d, want 1 and 2", served.DroppedLost, served.DroppedDup)
		}
		got := slices.SortedFunc(slices.Values(served.rows), func(a, b trace.Transfer) int { return cmp.Compare(a.Start, b.Start) })
		if !slices.Equal(got, want) {
			t.Fatalf("kept rows %v, want %v", got, want)
		}
	}
}

// TestFleetNodeDiesBetweenRedirectAndConnect covers the cached-route
// race: the front-end redirected a route to a node that dies before the
// client connects. The client must retry through the front-end and land
// on a surviving node.
func TestFleetNodeDiesBetweenRedirectAndConnect(t *testing.T) {
	rd, _ := startFleet(t, 1, "hash")

	// A route cached to an address nobody listens on anymore.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	cfg := fastReplayConfig()
	cfg.Frontend = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := newMetrics()
	r := &runner{
		addr:     rd.Addr(),
		cfg:      cfg,
		slots:    make(chan struct{}, 4),
		m:        m,
		resolver: newResolver(rd.Addr(), m),
		begin:    time.Now(),
		origin:   0,
	}
	ev := workload.Event{Session: 1, Seq: 0, Client: 0, Object: 0, Start: 0, Duration: 1}
	r.resolver.cache[routeKey{ev.Client, ev.Object}] = deadAddr

	c, addr := r.perform(nil, "", ev, false)
	if c == nil {
		t.Fatalf("transfer not recovered through front-end: %s", m.result())
	}
	c.Close()
	if addr == deadAddr {
		t.Fatal("still routed at the dead address")
	}
	res := m.result()
	if res.Failovers != 1 || res.Failed != 0 || res.Completed != 1 {
		t.Fatalf("unexpected metrics after recovery: %s", res)
	}
	if got := r.resolver.cache[routeKey{ev.Client, ev.Object}]; got != addr {
		t.Fatalf("sticky cache not refreshed: %q", got)
	}
}

// TestFleetRedirectLoopBounded covers the misconfigured fleet: the
// "node" a route redirects to is itself a redirector. The client must
// refuse the second hop, fail the transfer fast, and say why.
func TestFleetRedirectLoopBounded(t *testing.T) {
	rd, _ := startFleet(t, 1, "hash")

	// Register the redirector itself as a node: every route now
	// redirects to a server that answers START with another REDIRECT.
	conn, err := net.Dial("tcp", rd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("REGISTER " + rd.Addr() + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}

	cfg := fastReplayConfig()
	cfg.Frontend = true
	events := []workload.Event{{Session: 1, Seq: 0, Client: 9999, Object: 0, Start: 0, Duration: 1}}

	// 9999 does not collide with the live node's routes; keep resolving
	// until the loop-route lands on the redirector (rendezvous may pick
	// the real node for some players).
	begin := time.Now()
	var res *Result
	for c := 0; c < 50; c++ {
		events[0].Client = 9000 + c
		r, err := Replay(rd.Addr(), workload.NewSliceStream(events), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res = r
		if res.RedirectLoops > 0 {
			break
		}
	}
	if res.RedirectLoops == 0 {
		t.Fatal("no route ever hit the looping node")
	}
	if res.Failovers != 0 {
		t.Fatal("redirect loop must not trigger failover retries")
	}
	if elapsed := time.Since(begin); elapsed > 20*time.Second {
		t.Fatalf("loop detection took %v — not bounded", elapsed)
	}
}
