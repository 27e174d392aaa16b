package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func TestRegistryExpiry(t *testing.T) {
	r := NewRegistry(time.Second)
	t0 := time.Unix(1000, 0)
	r.Register("a:1", t0)
	r.Register("b:2", t0)

	alive := r.Alive(t0.Add(500 * time.Millisecond))
	if len(alive) != 2 || alive[0].Addr != "a:1" || alive[1].Addr != "b:2" {
		t.Fatalf("alive = %+v", alive)
	}
	if !r.Beat("a:1", 3, 10, t0.Add(900*time.Millisecond)) {
		t.Fatal("in-TTL beat refused")
	}
	// b has not beaten; at t0+1.5s it is expired, a is not.
	alive = r.Alive(t0.Add(1500 * time.Millisecond))
	if len(alive) != 1 || alive[0].Addr != "a:1" {
		t.Fatalf("post-expiry alive = %+v", alive)
	}
	if alive[0].Active != 3 || alive[0].Served != 10 {
		t.Fatalf("load not recorded: %+v", alive[0])
	}
	// A beat from the expired node must be refused, forcing re-register.
	if r.Beat("b:2", 0, 0, t0.Add(2*time.Second)) {
		t.Fatal("beat from expired node accepted")
	}
	if !r.Beat("a:1", 3, 11, t0.Add(1600*time.Millisecond)) {
		t.Fatal("a's in-TTL beat refused")
	}
	r.Register("b:2", t0.Add(2*time.Second))
	if len(r.Alive(t0.Add(2*time.Second))) != 2 {
		t.Fatal("re-registration did not revive the node")
	}
	if r.Registered() != 3 {
		t.Fatalf("registered = %d", r.Registered())
	}
}

// TestRegistryStaleDeregisterIgnored: a deregister from a superseded
// registration (an old connection's cleanup racing a node's reconnect)
// must not remove the fresh entry.
func TestRegistryStaleDeregisterIgnored(t *testing.T) {
	r := NewRegistry(time.Minute)
	t0 := time.Unix(1000, 0)
	gen1 := r.Register("a:1", t0)
	gen2 := r.Register("a:1", t0.Add(time.Second)) // reconnect
	if gen1 == gen2 {
		t.Fatal("re-registration reused the generation token")
	}
	r.Deregister("a:1", gen1) // stale cleanup
	if len(r.Alive(t0.Add(time.Second))) != 1 {
		t.Fatal("stale deregister removed the fresh registration")
	}
	r.Deregister("a:1", gen2)
	if len(r.Alive(t0.Add(time.Second))) != 0 {
		t.Fatal("owned deregister did not remove the node")
	}
}

func TestHashPolicyStickyAndMinimalChurn(t *testing.T) {
	nodes := []Node{{Addr: "n1:1"}, {Addr: "n2:2"}, {Addr: "n3:3"}}
	routes := make(map[string]string)
	for c := 0; c < 200; c++ {
		for _, uri := range []string{"/live/feed1", "/live/feed2"} {
			player := fmt.Sprintf("player-%03d", c)
			addr, ok := pick(player, uri, nodes)
			if !ok {
				t.Fatal("pick failed with nodes present")
			}
			routes[player+" "+uri] = addr
			// Sticky: repeated picks agree.
			again, _ := pick(player, uri, nodes)
			if again != addr {
				t.Fatalf("route %s %s flapped %s -> %s", player, uri, addr, again)
			}
		}
	}
	used := make(map[string]int)
	for _, a := range routes {
		used[a]++
	}
	if len(used) != 3 {
		t.Fatalf("hash policy used %d of 3 nodes: %v", len(used), used)
	}

	// Remove one node: only its routes may move.
	survivors := []Node{{Addr: "n1:1"}, {Addr: "n3:3"}}
	for key, before := range routes {
		player, uri, _ := strings.Cut(key, " ")
		after, _ := pick(player, uri, survivors)
		if before != "n2:2" && after != before {
			t.Fatalf("route %s moved %s -> %s though its node survived", key, before, after)
		}
		if before == "n2:2" && after == "n2:2" {
			t.Fatalf("route %s still on removed node", key)
		}
	}

	if _, ok := pick("p", "/u", nil); ok {
		t.Fatal("pick succeeded on empty node set")
	}
}

// rawNode registers addr over a raw connection and returns it (the test
// controls beats explicitly).
func rawNode(t *testing.T, frontend, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", frontend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("REGISTER " + addr + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "OK REGISTER" {
		t.Fatalf("REGISTER answered %q err %v", strings.TrimSpace(line), err)
	}
	return conn, r
}

func testRedirector(t *testing.T, ttl time.Duration) *Redirector {
	t.Helper()
	cfg := DefaultRedirectorConfig()
	cfg.TTL = ttl
	rd, err := ServeRedirector("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return rd
}

// TestRedirectorRoutesAndFastDeregister: lookups route across the
// registered set; dropping a node's registration connection moves its
// routes immediately (no TTL wait).
func TestRedirectorRoutesAndFastDeregister(t *testing.T) {
	rd := testRedirector(t, 5*time.Second)
	connA, _ := rawNode(t, rd.Addr(), "10.0.0.1:9001")
	rawNode(t, rd.Addr(), "10.0.0.2:9002")

	routes := make(map[string]string)
	for c := 0; c < 40; c++ {
		player := fmt.Sprintf("player-%02d", c)
		addr, err := Lookup(rd.Addr(), player, "/live/feed1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		routes[player] = addr
	}
	used := map[string]bool{}
	for _, a := range routes {
		used[a] = true
	}
	if len(used) != 2 {
		t.Fatalf("routes used %d nodes: %v", len(used), used)
	}

	connA.Close() // node process dies: conn EOF deregisters immediately
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(rd.Registry().Alive(time.Now())) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead node still registered after conn close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for player := range routes {
		addr, err := Lookup(rd.Addr(), player, "/live/feed1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if addr != "10.0.0.2:9002" {
			t.Fatalf("route %s still points at dead node %s", player, addr)
		}
	}
	if rd.Redirects() == 0 {
		t.Fatal("redirect counter never moved")
	}
}

// TestRedirectorNoNodes: a redirector with no registered nodes
// refuses visibly.
func TestRedirectorNoNodes(t *testing.T) {
	rd := testRedirector(t, time.Second)
	_, err := Lookup(rd.Addr(), "p", "/live/feed1", time.Second)
	if err == nil || !strings.Contains(err.Error(), "no nodes") {
		t.Fatalf("lookup with no nodes: %v", err)
	}
}

// TestAgentHeartbeatExpiryReRegistration: an agent whose beat interval
// exceeds the redirector TTL gets "ERR unregistered" answers and must
// recover by re-registering, again and again, as the registry's
// REGISTER count shows.
func TestAgentHeartbeatExpiryReRegistration(t *testing.T) {
	rd := testRedirector(t, 60*time.Millisecond)
	agent, err := StartAgent(rd.Addr(), "10.0.0.9:9009", 150*time.Millisecond, func() (int64, int64) { return 1, 2 })
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		if rd.Registry().Registered() >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent re-registered only %d times under TTL expiry", rd.Registry().Registered())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAgentReconnects: the agent survives a redirector restart at the
// same address.
func TestAgentReconnects(t *testing.T) {
	cfg := DefaultRedirectorConfig()
	cfg.TTL = 5 * time.Second
	rd, err := ServeRedirector("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := rd.Addr()

	agent, err := StartAgent(addr, "10.0.0.5:9005", 30*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	waitFor(t, time.Second, func() bool { return len(rd.Registry().Alive(time.Now())) == 1 })

	rd.Close()
	rd2, err := ServeRedirector(addr, cfg)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer rd2.Close()
	waitFor(t, 3*time.Second, func() bool { return len(rd2.Registry().Alive(time.Now())) == 1 })
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
