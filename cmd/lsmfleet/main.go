// Command lsmfleet runs the fleet front-end for a cluster of lsmserve
// nodes: it answers client HELLO/START lookups with a REDIRECT to a
// node picked by the configured policy, and accepts node REGISTER/BEAT
// registrations with heartbeat-TTL liveness:
//
//	lsmfleet [-addr 127.0.0.1:8600] [-policy hash|least-loaded|round-robin]
//	         [-ttl 2s] [-metrics host:port]
//
// Nodes join with `lsmserve -fleet <addr>`; clients replay through the
// front-end with `lsmload -addr <addr> -frontend`. The redirector runs
// until interrupted, printing node-set changes as they happen (a
// supervisor script can wait for "nodes: 3 registered"). With -metrics
// the fleet state (nodes up, redirects, heartbeat expiries, open
// connections) is served as plain-text counters at
// http://host:port/metrics — the machine-readable form of those status
// lines, and what scripts/e2e_fleet.sh polls.
//
// The nodes' transfer logs are validated as they are, one -logs per
// node: `lsmload -check meta.json -logs node1.log -logs node2.log ...`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8600", "listen address")
		policy  = flag.String("policy", "hash", "node pick policy: hash, least-loaded, round-robin")
		ttl     = flag.Duration("ttl", 2*time.Second, "node heartbeat TTL; silent nodes expire and stop receiving routes")
		metrics = flag.String("metrics", "", "optional address for the plain-text /metrics endpoint")
	)
	flag.Parse()

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	if err := runRedirector(*addr, *policy, *ttl, *metrics, interrupt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lsmfleet:", err)
		os.Exit(1)
	}
}

// runRedirector serves the fleet front-end until interrupted, printing
// node-set changes and exposing /metrics when metricsAddr is non-empty.
func runRedirector(addr, policy string, ttl time.Duration, metricsAddr string, interrupt <-chan os.Signal, w io.Writer) error {
	p, err := cluster.NewPolicy(policy)
	if err != nil {
		return err
	}
	cfg := cluster.DefaultRedirectorConfig()
	cfg.Policy = p
	cfg.TTL = ttl
	rd, err := cluster.ServeRedirector(addr, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fleet redirector on %s (policy %s, ttl %v)\n", rd.Addr(), p.Name(), ttl)
	if metricsAddr != "" {
		reg := telemetry.NewRegistry()
		reg.Set("nodes_up", func() int64 { return int64(len(rd.Registry().Alive(time.Now()))) })
		reg.Set("nodes_registered", rd.Registry().Registered)
		reg.Set("heartbeat_expiries", rd.Registry().Expired)
		reg.Set("redirects", rd.Redirects)
		reg.Set("no_node_errors", rd.NoNodeErrors)
		reg.Set("conns_open", rd.OpenConns)
		ms, err := telemetry.Serve(metricsAddr, reg)
		if err != nil {
			rd.Close()
			return err
		}
		defer ms.Close()
		fmt.Fprintf(w, "metrics on http://%s/metrics\n", ms.Addr())
	}

	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	status := time.NewTicker(10 * time.Second)
	defer status.Stop()
	lastNodes := -1
	for {
		select {
		case <-interrupt:
			fmt.Fprintln(w, "\nshutting down")
			return rd.Close()
		case <-ticker.C:
			if n := len(rd.Registry().Alive(time.Now())); n != lastNodes {
				lastNodes = n
				fmt.Fprintf(w, "nodes: %d registered\n", n)
			}
		case <-status.C:
			fmt.Fprintf(w, "nodes=%d redirects=%d no-node-errors=%d\n",
				len(rd.Registry().Alive(time.Now())), rd.Redirects(), rd.NoNodeErrors())
		}
	}
}
