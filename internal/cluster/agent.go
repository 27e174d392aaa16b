package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Agent is the node-side half of the redirector protocol: it registers a
// liveserver with the redirector and heartbeats its load until closed,
// reconnecting with backoff when the front-end drops, and
// re-registering in place when a beat is answered with
// "ERR unregistered" (heartbeat-expiry recovery).
type Agent struct {
	frontend  string
	advertise string
	interval  time.Duration
	load      func() (active, served int64)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartAgent registers advertise with the redirector at frontend and
// heartbeats every interval. load supplies the node's current
// (active, served) counters.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func StartAgent(frontend, advertise string, interval time.Duration, load func() (int64, int64)) (*Agent, error) {
	if frontend == "" || advertise == "" {
		return nil, fmt.Errorf("%w: empty frontend or advertise address", ErrCluster)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("%w: beat interval %v", ErrCluster, interval)
	}
	if load == nil {
		load = func() (int64, int64) { return 0, 0 }
	}
	a := &Agent{
		frontend:  frontend,
		advertise: advertise,
		interval:  interval,
		load:      load,
		stop:      make(chan struct{}),
	}
	a.wg.Add(1)
	go a.run()
	return a, nil
}

// Close stops the heartbeat loop and its connection. Idempotent.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (a *Agent) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}

//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (a *Agent) run() {
	defer a.wg.Done()
	backoff := a.interval
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		if a.session() {
			backoff = a.interval // clean loss: retry promptly
		} else if backoff < 2*time.Second {
			backoff *= 2
		}
		select {
		case <-a.stop:
			return
		case <-time.After(backoff):
		}
	}
}

// session runs one registration connection to completion. It returns
// true when the connection was established (so the reconnect backoff
// resets), false on dial failure.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (a *Agent) session() bool {
	conn, err := net.DialTimeout("tcp", a.frontend, 2*time.Second)
	if err != nil {
		return false
	}
	defer conn.Close()
	reader := bufio.NewReaderSize(conn, 1024)

	send := func(line string) error {
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, err := conn.Write([]byte(line + "\n"))
		return err
	}
	recv := func() (string, error) {
		conn.SetReadDeadline(time.Now().Add(2*time.Second + a.interval))
		line, err := reader.ReadString('\n')
		return strings.TrimSpace(line), err
	}
	register := func() bool {
		if send("REGISTER "+a.advertise) != nil {
			return false
		}
		line, err := recv()
		return err == nil && line == "OK REGISTER"
	}

	if !register() {
		return true
	}
	ticker := time.NewTicker(a.interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return true
		case <-ticker.C:
		}
		active, served := a.load()
		if send("BEAT "+strconv.FormatInt(active, 10)+" "+strconv.FormatInt(served, 10)) != nil {
			return true
		}
		line, err := recv()
		if err != nil {
			return true
		}
		if line != "OK" {
			// Expired (or otherwise refused): re-register in place.
			if !register() {
				return true
			}
		}
	}
}

// Lookup asks the redirector at frontend where (player, uri) is served:
// one HELLO/START/QUIT exchange, returning the redirected node address.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func Lookup(frontend, player, uri string, timeout time.Duration) (string, error) {
	conn, err := net.DialTimeout("tcp", frontend, timeout)
	if err != nil {
		return "", fmt.Errorf("cluster: lookup dial: %w", err)
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	conn.SetDeadline(deadline)
	reader := bufio.NewReaderSize(conn, 1024)

	exchange := func(sendLine string) (string, error) {
		if _, err := conn.Write([]byte(sendLine + "\n")); err != nil {
			return "", err
		}
		line, err := reader.ReadString('\n')
		if err != nil {
			return "", err
		}
		return strings.TrimSpace(line), nil
	}
	line, err := exchange("HELLO " + player)
	if err != nil {
		return "", fmt.Errorf("cluster: lookup: %w", err)
	}
	if line != "OK HELLO" {
		return "", fmt.Errorf("%w: lookup HELLO answered %q", ErrCluster, line)
	}
	line, err = exchange("START " + uri)
	if err != nil {
		return "", fmt.Errorf("cluster: lookup: %w", err)
	}
	addr, ok := strings.CutPrefix(line, "REDIRECT ")
	if !ok || addr == "" {
		return "", fmt.Errorf("%w: lookup answered %q", ErrCluster, line)
	}
	// Best-effort goodbye; the address is already in hand.
	conn.Write([]byte("QUIT\n"))
	return addr, nil
}
