// Command lsmserve runs the live streaming media server standalone: a
// TCP implementation of the minimal MMS-like protocol serving the two
// reality-show feeds, logging completed transfers as Windows-Media-
// Server-style entries.
//
// Usage:
//
//	lsmserve [-addr 127.0.0.1:8555] [-log transfers.log] [-log-format text|binary]
//	         [-metrics host:port] [-rate 110000]
//	         [-max-conns 256] [-write-timeout 10s] [-idle-timeout 60s]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -log names a new file: a path that already holds one is refused, so
// a restart cannot truncate the log a later lsmload -check reads.
// -log-format binary writes the transfer log in the framed binary
// wmslog format (decoded transparently by every reader — lsmload
// -check, lsmlog). -metrics serves the plain-text
// counters endpoint (conns, refusals, transfers) at
// http://host:port/metrics, the ops surface scripts poll instead of
// grepping logs.
//
// The GOMAXPROCS environment variable caps how many CPUs the server
// schedules across; by default it uses every schedulable CPU.
//
// -max-conns bounds concurrently served connections: a connection
// beyond the limit is answered with "ERR busy" and closed immediately —
// live viewers cannot be deferred, so capacity exhaustion is made
// visible, never a hang. -write-timeout disconnects readers that stop
// draining their socket; -idle-timeout drops half-open connections that
// go silent outside a transfer.
//
// Connect with the liveserver client package, the livereplay example,
// or drive it with generated workloads via lsmload. The server runs
// until interrupted (SIGINT or SIGTERM); on shutdown the transfer log
// is flushed and closed before the process exits, so the last entries
// are never lost.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/liveserver"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/wmslog"
)

// options collects the CLI parameters.
type options struct {
	addr, logPath, logFmt, metrics string
	rate, maxConn                  int
	writeTO, idleTO                time.Duration
}

// registerFlags binds the command's flags to o.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8555", "listen address")
	fs.StringVar(&o.logPath, "log", "", "optional path for WMS-style transfer log; must not exist yet")
	fs.StringVar(&o.logFmt, "log-format", "text", "transfer log format: text (canonical) or binary (framed fast path)")
	fs.StringVar(&o.metrics, "metrics", "", "optional address for the plain-text /metrics endpoint")
	fs.IntVar(&o.rate, "rate", 110000, "stream rate in bits/second")
	fs.IntVar(&o.maxConn, "max-conns", 256, "maximum concurrent connections; extras get 'ERR busy', never a hang")
	fs.DurationVar(&o.writeTO, "write-timeout", 10*time.Second, "disconnect a client that stops reading after this long (0 disables)")
	fs.DurationVar(&o.idleTO, "idle-timeout", 60*time.Second, "drop connections silent outside a transfer for this long (0 disables)")
}

func main() {
	var o options
	var profiles prof.Profiles
	registerFlags(flag.CommandLine, &o)
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if o.logFmt != "text" && o.logFmt != "binary" {
		fmt.Fprintf(os.Stderr, "lsmserve: -log-format %q: want text or binary\n", o.logFmt)
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmserve:", err)
		os.Exit(1)
	}

	app, err := newApp(appConfig{
		addr:         o.addr,
		logPath:      o.logPath,
		logBinary:    o.logFmt == "binary",
		metricsAddr:  o.metrics,
		rateBps:      o.rate,
		maxConns:     o.maxConn,
		writeTimeout: o.writeTO,
		idleTimeout:  o.idleTO,
	})
	if err != nil {
		profiles.Stop()
		fmt.Fprintln(os.Stderr, "lsmserve:", err)
		os.Exit(1)
	}
	fmt.Printf("live streaming server on %s (%d bit/s, GOMAXPROCS %d)\n",
		app.srv.Addr(), o.rate, runtime.GOMAXPROCS(0))
	if app.metrics != nil {
		fmt.Printf("metrics on http://%s/metrics\n", app.metrics.Addr())
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	err = app.loop(interrupt, 10*time.Second, os.Stdout)
	// The profiles cover the server's full lifetime: they stop after
	// shutdown has drained the handlers, so the artifacts include every
	// served transfer.
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmserve:", err)
		os.Exit(1)
	}
}

// appConfig collects what newApp needs to assemble a server.
type appConfig struct {
	addr    string
	logPath string
	// logBinary selects the framed binary log format over canonical
	// text for the transfer log.
	logBinary bool
	// metricsAddr, when non-empty, serves the plain-text /metrics
	// counters endpoint there.
	metricsAddr  string
	rateBps      int
	maxConns     int
	writeTimeout time.Duration
	idleTimeout  time.Duration
}

// app bundles the server with its transfer log so the shutdown path —
// stop serving, flush and close the log exactly once — is testable.
// Connection handlers complete (and log) concurrently; the SyncWriter
// serializes them.
type app struct {
	srv     *liveserver.Server
	metrics *telemetry.Server // nil unless -metrics was given

	logWriter *wmslog.SyncWriter
	logFile   *os.File

	closeOnce sync.Once
	closeErr  error
}

// newApp starts the server, wiring completed transfers into the log
// sink when a log path is configured and exposing /metrics when a
// metrics address is.
func newApp(ac appConfig) (*app, error) {
	cfg := liveserver.DefaultServerConfig()
	cfg.MaxConns = ac.maxConns
	cfg.WriteTimeout = ac.writeTimeout
	cfg.IdleTimeout = ac.idleTimeout
	// Pick frame pacing for the requested rate at ~10 frames/second.
	cfg.FrameInterval = 100 * time.Millisecond
	cfg.FrameBytes = ac.rateBps / 8 / 10
	if cfg.FrameBytes < 64 {
		cfg.FrameBytes = 64
	}

	a := &app{}
	if ac.logPath != "" {
		// O_EXCL: the log of an earlier run at this path is what a
		// later lsmload -check reads, so it is refused, not truncated.
		f, err := os.OpenFile(ac.logPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("-log %s already holds a file: give a new path", ac.logPath)
		}
		if err != nil {
			return nil, err
		}
		a.logFile = f
		var ew wmslog.EntryWriter
		if ac.logBinary {
			ew = wmslog.NewBinaryWriter(f)
		} else {
			ew = wmslog.NewWriter(f)
		}
		a.logWriter = wmslog.NewSyncWriter(ew)
		cfg.Sink = a.logTransfer
	}

	srv, err := liveserver.Serve(ac.addr, cfg)
	if err != nil {
		if a.logFile != nil {
			a.logFile.Close()
		}
		return nil, err
	}
	a.srv = srv
	if ac.metricsAddr != "" {
		reg := telemetry.NewRegistry()
		reg.Set("conns_open", srv.OpenConns)
		reg.Set("conns_accepted", srv.AcceptedConns)
		reg.Set("conns_refused", srv.RefusedConns)
		reg.Set("transfers_active", srv.ActiveTransfers)
		reg.Set("transfers_served", srv.ServedTransfers)
		if a.logWriter != nil {
			reg.Set("log_entries", a.logWriter.Count)
		}
		ms, err := telemetry.Serve(ac.metricsAddr, reg)
		if err != nil {
			a.shutdown()
			return nil, err
		}
		a.metrics = ms
	}
	return a, nil
}

// logTransfer appends one completed transfer to the log. It is only
// wired as the sink when the log is configured, and the server drains
// every handler before shutdown closes the file, so the writer is
// always live here.
func (a *app) logTransfer(r liveserver.TransferRecord) {
	err := a.logWriter.Write(liveserver.RecordEntry(r))
	if err == nil {
		// Flush per entry: transfer completions are rare enough that
		// durability (ungraceful kills, tail -f) beats write batching.
		err = a.logWriter.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmserve: log:", err)
	}
}

// loop prints periodic status until a signal arrives, then shuts down.
func (a *app) loop(interrupt <-chan os.Signal, statusEvery time.Duration, w io.Writer) error {
	ticker := time.NewTicker(statusEvery)
	defer ticker.Stop()
	for {
		select {
		case <-interrupt:
			fmt.Fprintln(w, "\nshutting down")
			return a.shutdown()
		case <-ticker.C:
			fmt.Fprintf(w, "active=%d served=%d refused=%d\n",
				a.srv.ActiveTransfers(), a.srv.ServedTransfers(), a.srv.RefusedConns())
		}
	}
}

// shutdown stops the server — which drains the connection handlers,
// so every completed transfer has reached the sink and nothing logs
// concurrently anymore — then flushes and closes the log. Idempotent;
// the first error wins.
func (a *app) shutdown() error {
	a.closeOnce.Do(func() {
		if a.metrics != nil {
			a.metrics.Close()
		}
		a.closeErr = a.srv.Close()
		if a.logFile == nil {
			return
		}
		if err := a.logWriter.Flush(); err != nil && a.closeErr == nil {
			a.closeErr = err
		}
		if err := a.logFile.Close(); err != nil && a.closeErr == nil {
			a.closeErr = err
		}
	})
	return a.closeErr
}
