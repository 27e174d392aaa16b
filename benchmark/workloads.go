package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/layers"
)

// pinsJSON holds, per workload, the output identity expected at the
// default seed and the full sizes.
//
//go:embed pins.json
var pinsJSON []byte

func pinned(workload string) (string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return "", fmt.Errorf("pins.json: %w", err)
	}
	return pins[workload], nil
}

// timedReps calls rep until the -seconds budget is spent (at least
// three times), or exactly sizes.Reps times when that is set. The
// budget covers the untimed checks between reps too, so a run's length
// is set-up plus -seconds whatever a rep costs.
func (h *harness) timedReps(rep func() error) error {
	deadline := time.Now().Add(time.Duration(h.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if h.sizes.Reps > 0 {
			if i >= h.sizes.Reps {
				return nil
			}
		} else if i >= 3 && !time.Now().Before(deadline) {
			return nil
		}
		if err := rep(); err != nil {
			return err
		}
	}
}

// report turns per-rep samples into the reported medians.
func report(res *runResult, name, unit string, samples []float64) {
	res.Samples[name] = samples
	res.Metrics.Set(name, layers.Median(samples), unit)
}

// calFixture is the log scale a calibration workload reads, and
// whether it runs the twin loop.
func (h *harness) calFixture(workload string) (scale float64, twin bool) {
	if workload == "twin_loop" {
		return h.sizes.TwinScale, true
	}
	return h.sizes.CharScale, false
}

// calArgs is the char_logs / twin_loop command line.
func (h *harness) calArgs(logs, spec string, twin bool) []string {
	args := []string{"-logs", logs, "-days", fmt.Sprint(h.sizes.Days), "-seed", fmt.Sprint(h.seed), "-o", spec}
	if twin {
		args = append(args, "-twin")
	}
	return args
}

// runCLI measures one of the three command-line workloads. One rep is
// one run of the program and one operation; it fails on a nonzero exit
// or when its output differs from the reference. Output checks run
// outside the timed region (cmd.Start → cmd.Wait).
func (h *harness) runCLI(workload, work string, res *runResult) error {
	var (
		peakRSS float64
		entries int64  // transfers one rep handles: the normalizer
		want    string // output identity every rep must reproduce
		rep     func() (layers.CLIRun, string, error)
	)
	logs, spec := filepath.Join(work, "logs"), filepath.Join(work, "spec.json")
	track := func(r layers.CLIRun) { peakRSS = max(peakRSS, r.MaxRSSMB) }

	switch workload {
	case "gen_logs":
		// The log md5 must not depend on the core count: the reference
		// run is the same command on one CPU.
		gen := func(env ...string) (layers.CLIRun, string, error) {
			r, sum, n, err := layers.RunGen(h.lsmgen, logs, h.sizes.GenScale, h.sizes.Days, h.seed, env...)
			entries = n
			return r, sum, err
		}
		rep = func() (layers.CLIRun, string, error) { return gen() }
		ref, sum, err := gen("GOMAXPROCS=1")
		if err != nil {
			return err
		}
		track(ref)
		want = sum
	case "char_logs", "twin_loop":
		scale, twin := h.calFixture(workload)
		fixture, _, n, err := layers.RunGen(h.lsmgen, logs, scale, h.sizes.Days, h.seed)
		if err != nil {
			return err
		}
		track(fixture)
		entries = n
		rep = func() (layers.CLIRun, string, error) {
			r, err := layers.RunCLI(nil, h.lsmcal, h.calArgs(logs, spec, twin)...)
			if err != nil {
				return r, "", err
			}
			fitted, err := os.ReadFile(spec)
			if err != nil {
				return r, "", err
			}
			return r, layers.Digest(fitted) + ":" + layers.Digest(r.Stdout), nil
		}
	}

	// runOp runs one rep as one operation and checks its output.
	runOp := func() (layers.CLIRun, bool) {
		res.Attempted++
		r, got, err := rep()
		track(r)
		switch {
		case err != nil:
			res.fail("%s rep %d: %v", workload, res.Attempted, err)
		case want == "":
			want = got
			return r, true
		case got != want:
			res.fail("%s rep %d: output %s differs from the reference %s", workload, res.Attempted, got, want)
		default:
			return r, true
		}
		res.Failed++
		return r, false
	}
	runOp() // warm-up: page cache, and the reference output where set-up made none
	if h.seed == defaultSeed && h.sizes == layers.Full {
		pin, err := pinned(workload)
		if err != nil {
			return err
		}
		if pin != "" && want != pin {
			res.fail("%s: output %s differs from the pinned seed-%d value %s", workload, want, defaultSeed, pin)
		}
	}

	setup := time.Since(processStart).Seconds() - h.buildS
	var wallUS, cpuUS []float64
	err := h.timedReps(func() error {
		if r, ok := runOp(); ok {
			wallUS = append(wallUS, float64(r.Wall.Microseconds())/float64(entries))
			cpuUS = append(cpuUS, float64(r.CPU().Microseconds())/float64(entries))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(wallUS) == 0 {
		return fmt.Errorf("%s: no rep succeeded: %v", workload, res.Notes)
	}
	res.Metrics.Set("setup_s", setup, "s")
	report(res, "wall_us_per_transfer", "us", wallUS)
	report(res, "cpu_us_per_transfer", "us", cpuUS)
	res.Metrics.Set("peak_rss_mb", peakRSS, "MB")
	res.Info["transfers_per_rep"] = float64(entries)
	res.Info["timed_reps"] = float64(len(wallUS))
	res.Identity = want
	return nil
}

// selfCPU is this process's user plus system time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// selfPeakRSSMB is this process's peak resident set, from VmHWM. Not
// ru_maxrss: Linux carries that across exec, so under `go run` it would
// report the go command's peak whenever that is the larger.
func selfPeakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// runLive measures the socket path: an in-process liveserver and C
// closed-loop clients in this one process. One rep is one round of
// sizes.LiveRound transfers; one transfer is one operation.
func (h *harness) runLive(work string, res *runResult) error {
	sessions, err := layers.LiveSessions(h.sizes, h.seed)
	if err != nil {
		return err
	}
	live, err := layers.StartLive(filepath.Join(work, "served.log"))
	if err != nil {
		return err
	}
	clients := layers.Clients()
	cursor := 0
	var rounds []layers.LiveRound
	play := func() layers.LiveRound {
		var round []layers.LiveSession
		round, cursor = layers.TakeRound(sessions, cursor, h.sizes.LiveRound)
		r := live.Round(nil, -1, round, clients)
		res.Attempted += r.Transfers
		res.Failed += r.Failed
		if r.Failed > 0 {
			res.fail("live_loop: %d of %d transfers failed: %v", r.Failed, r.Transfers, r.FirstErr)
		}
		rounds = append(rounds, r)
		return r
	}
	play() // warm-up

	setup := time.Since(processStart).Seconds() - h.buildS
	var wallUS, cpuUS []float64
	err = h.timedReps(func() error {
		before, err := selfCPU()
		if err != nil {
			return err
		}
		r := play()
		after, err := selfCPU()
		if err != nil {
			return err
		}
		done := float64(max(r.Transfers-r.Failed, 1))
		wallUS = append(wallUS, float64(r.ClientTime.Microseconds())/done)
		cpuUS = append(cpuUS, float64((after-before).Microseconds())/done)
		return nil
	})
	if err != nil {
		live.Close()
		return err
	}
	refused := live.Server.RefusedConns()
	logged, err := live.Close()
	if err != nil {
		return err
	}
	if completed := int64(res.Attempted - res.Failed); logged != completed {
		res.fail("live_loop: the server sink logged %d records for %d completed transfers", logged, completed)
	}
	if refused != 0 {
		res.fail("live_loop: %d connections refused", refused)
	}
	peakRSS, err := selfPeakRSSMB()
	if err != nil {
		return err
	}
	res.Metrics.Set("setup_s", setup, "s")
	report(res, "wall_us_per_transfer", "us", wallUS)
	report(res, "cpu_us_per_transfer", "us", cpuUS)
	res.Metrics.Set("peak_rss_mb", peakRSS, "MB")
	res.Info["clients"] = float64(clients)
	res.Info["timed_rounds"] = float64(len(wallUS))
	probe := layers.Metrics{}
	layers.LiveMetrics(rounds[1:], probe)
	for _, name := range []string{"liveserver.start_p50_us", "liveserver.start_p99_us", "liveserver.overhead_us"} {
		res.Info[name] = probe[name].Value
	}
	return nil
}

// runTraced is the traced pass: every layer probe on the shared
// fixture, then this workload's command replayed in-process with
// tracing off and with a span around every layer call.
func (h *harness) runTraced(workload, work string, res *runResult) error {
	fx, err := layers.NewFixture(h.sizes, h.seed, work)
	if err != nil {
		return err
	}
	for _, p := range layers.Probes(h.lsmgen) {
		res.Attempted++
		start := time.Now()
		if err := p.Run(fx, res.Metrics); err != nil {
			res.Failed++
			res.fail("%s probe: %v", p.Layer, err)
		}
		fmt.Fprintf(h.log, "probe %-10s %6.2f s\n", p.Layer, time.Since(start).Seconds())
	}

	replica, check, err := h.replica(workload, work)
	if err != nil {
		return err
	}
	res.Attempted++
	// Untraced, traced, untraced: the traced run is compared with the
	// mean of its neighbours, so a warm-up or drift between runs does not
	// read as tracing cost.
	tracer := layers.NewTracer(workload)
	var walls [3]time.Duration
	for i, t := range []*layers.Tracer{nil, tracer, nil} {
		if walls[i], err = replica(t); err != nil {
			break
		}
	}
	if err == nil {
		res.Metrics.Set("tracing.overhead_share", 2*walls[1].Seconds()/(walls[0]+walls[2]).Seconds()-1, "ratio")
		err = check()
	}
	if err != nil {
		res.Failed++
		res.fail("%s replica: %v", workload, err)
	}
	spans := tracer.Spans()
	serial := workload == "char_logs" || workload == "twin_loop"
	layers.PrintSelfTimes(h.tables, workload, spans, !serial)
	// Below a second of traced wall (the smoke sizes) 2% is a window
	// one scheduler hiccup between two spans can fill.
	if share, wall := layers.Residual(spans); serial && share > 0.02 && wall >= time.Second {
		res.fail("%s trace: %.1f%% of the traced wall is in no layer span (limit 2%%): pipeline.go no longer mirrors the command", workload, 100*share)
	}
	return tracer.WriteFile(filepath.Join(h.out, "trace-"+workload+".json"))
}

// replica returns the in-process replay of the workload's command (its
// wall time with the given tracer) and a check, run after both replays,
// that the replica still produces what the command produces.
func (h *harness) replica(workload, work string) (run func(*layers.Tracer) (time.Duration, error), check func() error, err error) {
	timed := func(f func() error) (time.Duration, error) {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	switch workload {
	case "gen_logs":
		// ProbePipeline has already compared the replica's digest with
		// the command's at this scale and seed.
		dir := filepath.Join(work, "replica-logs")
		run = func(t *layers.Tracer) (time.Duration, error) {
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
			return timed(func() error {
				_, err := layers.GenReplica(t, dir, h.sizes.GenScale, h.sizes.Days, h.seed)
				return err
			})
		}
		return run, func() error { return nil }, nil
	case "char_logs", "twin_loop":
		scale, twin := h.calFixture(workload)
		logs := filepath.Join(work, "logs")
		if _, _, _, err := layers.RunGen(h.lsmgen, logs, scale, h.sizes.Days, h.seed); err != nil {
			return nil, nil, err
		}
		replicaSpec, cliSpec := filepath.Join(work, "replica-spec.json"), filepath.Join(work, "cli-spec.json")
		run = func(t *layers.Tracer) (time.Duration, error) {
			return timed(func() error {
				return layers.CalReplica(t, logs, h.sizes.Days, h.seed, replicaSpec, twin, io.Discard)
			})
		}
		check = func() error {
			if _, err := layers.RunCLI(nil, h.lsmcal, h.calArgs(logs, cliSpec, twin)...); err != nil {
				return err
			}
			a, err := os.ReadFile(replicaSpec)
			if err != nil {
				return err
			}
			b, err := os.ReadFile(cliSpec)
			if err != nil {
				return err
			}
			if string(a) != string(b) {
				return fmt.Errorf("the replica's fitted spec differs from lsmcal's: pipeline.go no longer mirrors the command")
			}
			return nil
		}
		return run, check, nil
	default: // live_loop
		sessions, err := layers.LiveSessions(h.sizes, h.seed)
		if err != nil {
			return nil, nil, err
		}
		cursor := 0
		run = func(t *layers.Tracer) (time.Duration, error) {
			live, err := layers.StartLive(filepath.Join(work, "replica-served.log"))
			if err != nil {
				return 0, err
			}
			defer live.Close()
			var round []layers.LiveSession
			round, cursor = layers.TakeRound(sessions, cursor, h.sizes.LiveRound)
			root := t.Begin("live_loop", -1)
			r := live.Round(t, root, round, layers.Clients())
			t.End(root)
			if r.Failed > 0 {
				return 0, fmt.Errorf("%d of %d transfers failed: %v", r.Failed, r.Transfers, r.FirstErr)
			}
			return r.ClientTime / time.Duration(r.Transfers), nil
		}
		return run, func() error { return nil }, nil
	}
}
