package layers

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// GenReplica replays in-process the call sequence of
// cmd/lsmgen.runStreaming (`lsmgen -stream -out dir -scale S -days D
// -seed N`, program-default shards and lanes) with a span around each
// call into a layer. The stages overlap — generator shards, dispatcher,
// serve lanes and the collector that runs the entry sink are separate
// goroutines — so the per-entry sink is folded into one aggregate span
// of (sampled) busy time. It returns that busy time as a share of the serve
// pass's wall: near 1 means the serial collector/writer is the
// bottleneck.
func GenReplica(t *Tracer, dir string, scale float64, days int, seed int64) (sinkBusyShare float64, err error) {
	root := t.Begin("lsmgen", -1)
	defer t.End(root)

	model, err := gismo.Scaled(scale, days)
	if err != nil {
		return 0, err
	}
	if err := model.Validate(); err != nil {
		return 0, err
	}
	span := t.Begin("gismo.NewStream", root)
	ws, err := gismo.NewStream(model, rand.New(rand.NewSource(seed)).Int63(), gismo.DefaultShards())
	t.End(span)
	if err != nil {
		return 0, err
	}
	defer ws.Close()

	span = t.Begin("wmslog.NewDailyWriter", root)
	dw, err := wmslog.NewDailyWriter(dir)
	t.End(span)
	if err != nil {
		return 0, err
	}

	// Two clock reads around every entry would slow the collector — the
	// pipeline's serial bottleneck — by a third on this box, so one sink
	// call in sinkSample is timed and the busy time scaled up.
	const sinkSample = 16
	sink := dw.Write
	var first, last time.Time
	var busy time.Duration
	var calls int64
	if t != nil {
		sink = func(e *wmslog.Entry) error {
			calls++
			if calls%sinkSample != 1 {
				return dw.Write(e)
			}
			begin := time.Now()
			err := dw.Write(e)
			last = time.Now()
			if calls == 1 {
				first = begin
			}
			busy += last.Sub(begin)
			return err
		}
	}
	span = t.Begin("simulate.RunStreamSharded", root)
	serveBegin := time.Now()
	_, err = simulate.RunStreamSharded(ws, ws.Population(), model.Horizon, simulate.DefaultConfig(), uint64(seed), simulate.DefaultServeLanes(), simulate.StreamSinks{Entry: sink})
	serveWall := time.Since(serveBegin)
	t.End(span)
	busy *= sinkSample
	t.Aggregate("wmslog.DailyWriter.Write", span, first, last, busy, calls)
	if err != nil {
		dw.Close()
		return 0, err
	}
	span = t.Begin("wmslog.DailyWriter.Close", root)
	err = dw.Close()
	t.End(span)
	return float64(busy) / float64(max(serveWall, 1)), err
}

// CalReplica replays in-process the call sequence of cmd/lsmcal.run
// (`lsmcal -logs dir -days D -seed N -o spec [-twin]`, default
// timeout, no -strict), printing a summary of each step to w. Every
// stage is serial, so the spans' self times sum to the wall.
func CalReplica(t *Tracer, logDir string, days int, seed int64, specPath string, twin bool, w io.Writer) error {
	root := t.Begin("lsmcal", -1)
	defer t.End(root)
	const timeout = sessions.DefaultTimeout

	span := t.Begin("wmslog.FindLogs", root)
	paths, err := wmslog.FindLogs(logDir)
	t.End(span)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no wms-*.log files under %s", logDir)
	}
	span = t.Begin("wmslog.ReadFiles", root)
	entries, st, err := wmslog.ReadFiles(paths, true)
	t.End(span)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parsed %d entries from %d files (%d malformed lines skipped)\n", st.Entries, len(paths), st.Malformed)

	span = t.Begin("trace.FromEntries", root)
	tr, err := trace.FromEntries(entries, wmslog.TraceEpoch, int64(days)*86400)
	t.End(span)
	if err != nil {
		return err
	}
	span = t.Begin("trace.Sanitize", root)
	clean, sanReport := tr.Sanitize()
	t.End(span)
	fmt.Fprintln(w, sanReport)

	span = t.Begin("core.Characterize", root)
	source, err := core.Characterize(clean, timeout, nil, seed)
	t.End(span)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "source: %d clients, %d sessions, %d transfers over %d day(s)\n",
		source.Basic.Users, source.Basic.Sessions, source.Basic.Transfers, source.Basic.Days)

	span = t.Begin("calibrate.Fit", root)
	model, fitRep := calibrate.Fit(source)
	t.End(span)
	fmt.Fprintf(w, "fitted model: %d clients, %d objects, base rate %.6g/s, %d note(s)\n",
		model.NumClients, model.NumObjects, model.BaseArrivalRate, len(fitRep.Notes))

	span = t.Begin("gismo.Model.Save", root)
	err = model.Save(specPath)
	t.End(span)
	if err != nil || !twin {
		return err
	}

	span = t.Begin("calibrate.Twin", root)
	twinChar, err := calibrate.Twin(model, seed, timeout)
	t.End(span)
	if err != nil {
		return err
	}
	span = t.Begin("calibrate.Validate", root)
	rep := calibrate.Validate(source, twinChar)
	t.End(span)
	span = t.Begin("calibrate.ValidationReport.Render", root)
	err = rep.Render(w)
	t.End(span)
	fmt.Fprintf(w, "%d of %d KS tests reject at alpha %.2g\n", len(rep.Rejections()), len(rep.Checks), rep.Alpha)
	return err
}

// RunGen runs the gen_logs command — `lsmgen -stream -out dir -scale S
// -days D -seed N`, program-default shards and lanes — into an emptied
// dir and digests the logs it wrote.
func RunGen(lsmgen, dir string, scale float64, days int, seed int64, extraEnv ...string) (run CLIRun, sum string, entries int64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return run, "", 0, err
	}
	run, err = RunCLI(extraEnv, lsmgen, "-stream", "-out", dir, "-scale", fmt.Sprint(scale), "-days", fmt.Sprint(days), "-seed", fmt.Sprint(seed))
	if err != nil {
		return run, "", 0, err
	}
	sum, entries, err = DigestLogs(dir)
	return run, sum, entries, err
}

// ProbePipeline measures what only whole runs show: the generation
// pipeline's parallel speedup over a GOMAXPROCS=1 run of the same
// command, the kernel's share of its CPU time, and — from a traced
// in-process replica — how busy the serial log sink is. All three runs
// must produce the same log digest: the 1×1 versus nproc×nproc
// shard/lane invariance contract, and the proof that GenReplica still
// mirrors the command.
func ProbePipeline(fx *Fixture, lsmgen string, m Metrics) error {
	dir := filepath.Join(fx.Dir, "gen")
	serial, serialSum, _, err := RunGen(lsmgen, dir, fx.Sizes.GenScale, fx.Sizes.Days, fx.Seed, "GOMAXPROCS=1")
	if err != nil {
		return err
	}
	parallel, parallelSum, _, err := RunGen(lsmgen, dir, fx.Sizes.GenScale, fx.Sizes.Days, fx.Seed)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	share, err := GenReplica(NewTracer("gen_logs"), dir, fx.Sizes.GenScale, fx.Sizes.Days, fx.Seed)
	if err != nil {
		return err
	}
	replicaSum, _, err := DigestLogs(dir)
	if err != nil {
		return err
	}
	if serialSum != parallelSum || replicaSum != parallelSum {
		return fmt.Errorf("log digests differ: GOMAXPROCS=1 %s, default %s, in-process replica %s", serialSum, parallelSum, replicaSum)
	}
	m.Set("pipeline.gen_wall_1cpu_s", serial.Wall.Seconds(), "s")
	m.Set("pipeline.gen_parallel_speedup", serial.Wall.Seconds()/parallel.Wall.Seconds(), "ratio")
	m.Set("pipeline.gen_sys_share", parallel.Sys.Seconds()/parallel.CPU().Seconds(), "ratio")
	m.Set("wmslog.sink_busy_share", share, "ratio")
	return os.RemoveAll(dir)
}
