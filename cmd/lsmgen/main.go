// Command lsmgen generates a synthetic live-streaming-media workload with
// the extended GISMO model of Veloso et al. (IMC 2002), serves it through
// the simulated Windows Media Server, and writes daily log files.
//
// Usage:
//
//	lsmgen -out logs/ [-scale 150] [-days 7] [-seed 1] [-model model.json]
//	       [-save-model model.json] [-log-format text|binary]
//	       [-shards N]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -log-format binary writes the daily files in the framed binary
// wmslog format (~5-10× faster to re-parse, auto-detected by every
// reader); text stays the canonical form all md5 contracts are pinned
// to, and `lsmlog convert` round-trips between the two losslessly.
//
// The pipeline is one streamed pass: the sharded generator feeds the
// simulator's serve goroutine event by event, and log lines go
// straight to the daily files from the calling goroutine, so memory is
// the client population (a 12-byte row per client: numbers, no text),
// about a byte per session (the arrival schedule, kept as varint gaps)
// and O(active sessions) — a 48-byte cursor per pending session, plus
// the simulator's in-flight transfers as numeric log records — at any
// scale, paper scale (-scale 1) included. A text line is rendered from
// those numbers only as it is written (simulate's Line sink into
// DailyWriter.WriteLine); -log-format binary takes the records as
// wmslog.Entry values instead, and so holds every client's IP and
// player id as text for the run. -shards sets the
// generator shard count (0 = one per schedulable CPU). The emitted
// logs are byte-identical for the same seed at any shard count and
// GOMAXPROCS. -stream is accepted and ignored: streaming is the only
// mode.
//
// -out must not hold a daily log yet (wms-*.log or wms-*.log.gz): a
// second run into one directory would leave its days beside, or over,
// the first run's, and every reader would take the mix for one log.
// lsmgen refuses such a directory before it generates or writes
// anything.
//
// The profiling flags (internal/prof) capture the run as pprof/trace
// artifacts; `make profile` is the canonical profiling invocation.
//
// The generated logs can then be characterized with lsmchar, or closed
// into the calibration loop with lsmcal. -model loads a model spec
// (e.g. one fitted by `lsmcal -o`) instead of the -scale/-days
// parameterization; -save-model writes the effective model spec so the
// run can be reproduced or adjusted. The two compose: `-model a.json
// -save-model b.json` round-trips the spec byte-identically.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/gismo"
	"repro/internal/prof"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

// options collects the CLI parameters.
type options struct {
	out       string
	scale     float64
	days      int
	seed      int64
	savePath  string
	loadPath  string
	logFormat string
	shards    int
}

// registerFlags binds the workload flags to o.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.out, "out", "", "directory for daily log files (required; must hold none yet)")
	fs.Float64Var(&o.scale, "scale", 150, "population/rate scale-down factor (1 = paper scale)")
	fs.IntVar(&o.days, "days", 7, "trace length in days")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.loadPath, "model", "", "model spec JSON to load instead of -scale/-days (e.g. from lsmcal -o)")
	fs.StringVar(&o.savePath, "save-model", "", "optional path to write the effective model spec JSON")
	fs.StringVar(&o.logFormat, "log-format", "text", "daily log format: text (canonical) or binary (framed fast path)")
	fs.Bool("stream", false, "ignored: streaming is the only mode (kept so existing command lines parse)")
	fs.IntVar(&o.shards, "shards", 0, "generator shards (0 = one per CPU)")
}

func main() {
	var o options
	var profiles prof.Profiles
	registerFlags(flag.CommandLine, &o)
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if o.out == "" {
		fmt.Fprintln(os.Stderr, "lsmgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if o.logFormat != "text" && o.logFormat != "binary" {
		fmt.Fprintf(os.Stderr, "lsmgen: -log-format %q: want text or binary\n", o.logFormat)
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmgen:", err)
		os.Exit(1)
	}
	err := run(o)
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmgen:", err)
		os.Exit(1)
	}
}

// refuseOldLogs refuses an output directory that already holds a file
// the log readers read (the package comment says why).
func refuseOldLogs(dir string) error {
	paths, err := wmslog.FindLogs(dir)
	if err != nil {
		return err
	}
	if len(paths) > 0 {
		return fmt.Errorf("-out %s already holds daily logs (%s): give an empty or new directory", dir, paths[0])
	}
	return nil
}

// run pipes the sharded generator straight into the simulator and the
// simulator straight into the daily log writer: no workload, trace or
// entry slice is ever materialized. Session expansion runs across the
// generator's shards, the server-model draws on the serve goroutine,
// and log rendering on this one.
func run(o options) error {
	if err := refuseOldLogs(o.out); err != nil {
		return err
	}
	model, err := resolveModel(o)
	if err != nil {
		return err
	}
	shards := o.shards
	if shards == 0 {
		shards = gismo.DefaultShards()
	}
	ws, err := gismo.NewStreamSeeded(model, o.seed, shards)
	if err != nil {
		return err
	}
	defer ws.Close()
	fmt.Printf("streaming: %d clients, %d-day horizon, seed %d, %d shards, GOMAXPROCS %d\n",
		model.NumClients, model.Horizon/86400, o.seed, shards, runtime.GOMAXPROCS(0))

	dw, err := wmslog.NewDailyWriter(o.out)
	if err != nil {
		return err
	}
	sinks := simulate.StreamSinks{Line: dw.WriteLine}
	if o.logFormat == "binary" {
		dw.Binary = true
		sinks = simulate.StreamSinks{Entry: dw.Write}
	}
	res, err := simulate.RunStream(ws, ws.Population(), model.Horizon, simulate.DefaultConfig(), uint64(o.seed), sinks)
	if err != nil {
		dw.Close()
		return err
	}
	if err := dw.Close(); err != nil {
		return err
	}
	sessions, err := ws.Sessions()
	if err != nil {
		return err
	}
	fmt.Printf("served %d transfers from %d sessions (peak concurrency %d, %d corrupt entries injected)\n",
		res.Transfers, sessions, res.PeakConcurrency, res.Injected)
	fmt.Printf("wrote %d daily log files under %s\n", len(dw.Files()), o.out)
	if o.savePath != "" {
		if err := model.Save(o.savePath); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", o.savePath)
	}
	return nil
}

func resolveModel(o options) (gismo.Model, error) {
	if o.loadPath != "" {
		return gismo.LoadModel(o.loadPath)
	}
	m, err := gismo.Scaled(o.scale, o.days)
	if err != nil {
		return m, err
	}
	return m, m.Validate()
}
