// Command lsmfleet runs the fleet front-end for a cluster of lsmserve
// nodes, and merges their per-node transfer logs into one canonical
// log.
//
// Redirector mode (default): accept client HELLO/START lookups and
// answer REDIRECT to a node picked by the configured policy; accept
// node REGISTER/BEAT registrations with heartbeat-TTL liveness:
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
// Merge mode: deterministically merge per-node logs (files or
// directories of daily logs) by (end-time, session, seq) and print the
// realization digest — the md5 over the timing-independent identity of
// the served workload, equal across any node assignment that served
// the same transfers:
//
//	lsmfleet -merge merged.log node1.log node2.log node3.log
//
// Inputs may be canonical text or binary-framed wmslog files in any
// mix (format auto-detected by magic bytes, gzip transparent); the
// merged output is always canonical text, so the digest contracts stay
// anchored on the text form.
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
	"repro/internal/wmslog"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8600", "listen address (redirector mode)")
		policy  = flag.String("policy", "hash", "node pick policy: hash, least-loaded, round-robin")
		ttl     = flag.Duration("ttl", 2*time.Second, "node heartbeat TTL; silent nodes expire and stop receiving routes")
		metrics = flag.String("metrics", "", "optional address for the plain-text /metrics endpoint (redirector mode)")
		merge   = flag.String("merge", "", "merge mode: write the merged per-node logs (positional args) here")
	)
	flag.Parse()

	var err error
	if *merge != "" {
		err = runMerge(*merge, flag.Args(), os.Stdout)
	} else {
		interrupt := make(chan os.Signal, 1)
		signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
		err = runRedirector(*addr, *policy, *ttl, *metrics, interrupt, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmfleet:", err)
		os.Exit(1)
	}
}

// runMerge merges per-node logs (each input a file or a directory of
// daily logs) into one canonical log at out.
func runMerge(out string, inputs []string, w io.Writer) error {
	if len(inputs) == 0 {
		return fmt.Errorf("merge mode wants per-node log files or directories as arguments")
	}
	var paths []string
	for _, in := range inputs {
		fi, err := os.Stat(in)
		if err != nil {
			return err
		}
		if fi.IsDir() {
			found, err := wmslog.FindLogs(in)
			if err != nil {
				return err
			}
			if len(found) == 0 {
				return fmt.Errorf("no logs under %s", in)
			}
			paths = append(paths, found...)
		} else {
			paths = append(paths, in)
		}
	}

	if err := wmslog.CheckOutput(out, paths); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	stats, err := wmslog.MergeFiles(f, paths)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
		return err
	}
	fmt.Fprintf(w, "merged %d entries (%d tagged, %d binary-framed) from %d logs into %s\n",
		stats.Entries, stats.Tagged, stats.Binary, stats.Files, out)
	fmt.Fprintf(w, "realization md5=%s\n", stats.Realization)
	return nil
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
