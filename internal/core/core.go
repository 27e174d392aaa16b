// Package core is the end-to-end reproduction pipeline of Veloso et al.,
// "A Hierarchical Characterization of a Live Streaming Media Workload"
// (IMC 2002).
//
// It wires the substrates together:
//
//	gismo.NewStreamSeeded -> synthetic request stream (Section 6 model)
//	simulate.RunStream    -> served transfers, as the WMS-style log holds them
//	trace.Stream          -> Section 2.4 cleaning, rows in the trace order
//	sessions              -> Section 2.2 sessionization at T_o
//	analyze               -> Sections 3-5 layer characterizations
//	report                -> figures, tables, paper-vs-measured comparisons
//
// The headline artifact is the round trip: instantiate the generative
// model with the paper's Table 2 parameters, push it through the server
// and the characterization pipeline, and recover the parameters — the
// validation loop the paper itself closes with GISMO.
package core

import (
	"fmt"
	"io"
	"math"
	randv2 "math/rand/v2"
	"sync"

	"repro/internal/analyze"
	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// lanePoissonReplica is the seed-derivation lane of the measurement
// side's only random draw — the Figure 6 piecewise-Poisson replica —
// disjoint from the generator's lanes 0–4 and the server's serveLane
// 5, so characterizing a trace with the same seed that generated it
// cannot correlate the replica's synthetic arrivals with the trace's
// own randomness (lsmvet's seedlane analyzer keeps the namespace
// collision-free).
const lanePoissonReplica uint64 = 7

// Config parameterizes a full reproduction run.
type Config struct {
	// Model is the generative model (gismo.Default for paper scale,
	// gismo.Scaled for laptop scale).
	Model gismo.Model
	// Server is the simulator configuration.
	Server simulate.Config
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
}

// DefaultTimeoutSweep spans Figure 9's x-axis (up to 4,000 s).
var DefaultTimeoutSweep = []int64{60, 120, 300, 600, 900, 1200, 1500, 2000, 2500, 3000, 3500, 4000}

// DefaultConfig returns a laptop-scale configuration: the paper's
// distributional parameters over a 7-day trace with a population scaled
// down by the given factor (>= 1).
func DefaultConfig(scale float64, days int, seed int64) (Config, error) {
	m, err := gismo.Scaled(scale, days)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Model:  m,
		Server: simulate.DefaultConfig(),
		Seed:   seed,
	}, nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	return c.Server.Validate()
}

// BasicStats is Table 1: the trace's basic statistics.
type BasicStats struct {
	Days       int
	Objects    int
	ASes       int
	IPs        int
	Users      int
	Sessions   int
	Transfers  int
	TotalBytes int64
}

// Characterization bundles the layer analyses of a sanitized trace.
// The calibration core is every field calibrate.Fit, calibrate.Validate
// and lsmcal's report read; with Figures it is all the material behind
// Figures 2–20.
type Characterization struct {
	// Horizon is the trace length in seconds — carried so downstream
	// consumers (the calibrate.Fit parameter recovery) need no second
	// look at the trace.
	Horizon  int64
	Timeout  int64
	Basic    BasicStats
	Client   *analyze.ClientLayer
	Session  *analyze.SessionLayer
	Transfer *analyze.TransferLayer
	Divers   *analyze.Diversity

	// ArrivalBins counts session arrivals per 15-minute bin over the
	// horizon — the binned arrival series behind Figure 4, and the
	// series calibrate.Fit reads the empirical rate profile off.
	ArrivalBins stats.BinnedSeries

	// Figures is the figure-only material: nil without FigureOptions.
	Figures *FigureData
}

// FigureOptions asks an Observer for the figure material too: the
// figure step's two inputs.
type FigureOptions struct {
	Sweep []int64 // the Figure 9 timeouts; nil selects DefaultTimeoutSweep
	// Seed drives the Figure 6 Poisson replica through its own splitmix
	// lane (lanePoissonReplica): equal inputs characterize identically.
	Seed int64
}

// auditThreshold is the server-load audit's CPU threshold (percent).
const auditThreshold = 10

// FigureData is what only the paper's figures, lsmchar's report and the
// paper comparison read: the figure-only part of each layer, the
// Figure 9 timeout sweep, the Figure 6 Poisson replica and the
// server-load audit.
type FigureData struct {
	Client   *analyze.ClientFigures
	Session  *analyze.SessionFigures
	Transfer *analyze.TransferFigures
	Sweep    []sessions.SweepPoint
	Audit    trace.OverloadAudit // Section 2.4's, at auditThreshold

	// Poisson is the Figure 6 replica: interarrivals synthesized from a
	// piecewise-stationary Poisson process whose rates are read off the
	// measured diurnal profile, plus the two-sample KS distance to the
	// measured interarrivals.
	Poisson PoissonReplica
}

// PoissonReplica is the Figure 6 experiment.
type PoissonReplica struct {
	// Interarrivals are the synthetic interarrival display values,
	// sorted ascending.
	Interarrivals []float64
	// KS is the two-sample KS distance between measured and synthetic
	// interarrival distributions; the paper calls the two "surprisingly
	// similar".
	KS float64
	// Window is the stationarity window used (seconds).
	Window int64
}

// Report is the result of a full generative run.
type Report struct {
	Config   Config
	Sanitize trace.SanitizeReport
	Audit    trace.OverloadAudit
	Peak     int // peak concurrent transfers in the simulator
	Char     *Characterization
}

// Run executes the full pipeline: generate and serve, then characterize
// the served rows as ObserveServed does, with the figure material. The
// result is Characterize's of the trace the run's log holds, sanitized.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	char, res, sanitized, err := observeServed(cfg.Model, cfg.Server, cfg.Seed, sessions.DefaultTimeout,
		&FigureOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Report{
		Config:   cfg,
		Sanitize: sanitized,
		Audit:    char.Figures.Audit,
		Peak:     res.PeakConcurrency,
		Char:     char,
	}, nil
}

// ObserveServed characterizes m's workload from seed as its server
// logs it, with no trace built: the sharded event stream is served
// (simulate.RunStream), and the rows the log holds are sanitized and
// put in the trace order as they come (trace.Stream) and fed straight
// into an Observer. The result is Observe's of those rows built into a
// trace (trace.New) and sanitized, and a pure function of (m, server,
// seed, timeout) at any GOMAXPROCS — the calibration twin's path
// (calibrate.Twin).
func ObserveServed(m gismo.Model, server simulate.Config, seed, timeout int64) (*Characterization, error) {
	char, _, _, err := observeServed(m, server, seed, timeout, nil)
	return char, err
}

// observeServed serves m's workload from seed into an Observer given
// figs (ServeRows), and returns its characterization, the run's summary
// and the sanitize report.
func observeServed(m gismo.Model, server simulate.Config, seed, timeout int64, figs *FigureOptions) (
	char *Characterization, res *simulate.StreamResult, report trace.SanitizeReport, err error) {
	o, err := NewObserver(m.Horizon, timeout, 0, m.NumClients, figs)
	if err != nil {
		return nil, nil, report, err
	}
	res, _, report, err = ServeRows(m, server, seed, o.Add, o.SetNames)
	if err != nil {
		return nil, nil, report, err
	}
	char, err = o.Characterization()
	return char, res, report, err
}

// ServeRows generates m's workload from seed as a sharded stream,
// serves it (simulate.RunStream) and hands each row the log holds,
// sanitized and in the trace order (trace.Stream), to add; names, when
// not nil, gets the run's name table. No trace is built. It returns the
// run's summary, the number of sessions generated and the sanitize
// report.
func ServeRows(m gismo.Model, server simulate.Config, seed int64, add func(*trace.Transfer), names func(*trace.Names)) (
	res *simulate.StreamResult, sessionCount int, report trace.SanitizeReport, err error) {
	rows, err := trace.NewStream(m.Horizon, add)
	if err != nil {
		return nil, 0, report, err
	}
	ws, err := gismo.NewStreamSeeded(m, seed, gismo.DefaultShards())
	if err != nil {
		return nil, 0, report, fmt.Errorf("generate: %w", err)
	}
	defer ws.Close()
	res, err = simulate.RunStream(ws, ws.Population(), m.Horizon, server, uint64(seed),
		simulate.StreamSinks{Transfer: rows.Add, Names: names})
	if err != nil {
		return nil, 0, report, fmt.Errorf("simulate: %w", err)
	}
	if sessionCount, err = ws.Sessions(); err != nil { // the stream ended early
		return nil, 0, report, fmt.Errorf("generate: %w", err)
	}
	return res, sessionCount, rows.Close(), nil
}

// findLogs returns the daily log files under dir, refusing a directory
// that has none.
func findLogs(dir string) ([]string, error) {
	paths, err := wmslog.FindLogs(dir)
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("no wms-*.log or wms-*.log.gz files under %s", dir)
	}
	return paths, err
}

// writeIngest writes the parse and sanitize summaries of an ingest of
// files log files.
func writeIngest(w io.Writer, st wmslog.ParseStats, files int, report trace.SanitizeReport) {
	fmt.Fprintf(w, "parsed %d entries from %d files (%d malformed lines skipped)\n",
		st.Entries, files, st.Malformed)
	fmt.Fprintln(w, report)
}

// ObserveLogs characterizes the daily wms-*.log files under dir (text,
// gzip or framed binary) over a days-long horizon, parsed tolerantly
// and sanitized (Section 2.4), and writes the parse and sanitize
// summaries to w; figs asks for the figure material. No trace is
// built: the rows go from the ingest's merge (trace.StreamLogs)
// straight into an Observer, so what is held is the observer's state
// and a few files' rows. Logs whose files reach back further than a
// daily harvest's (the Ingest is not Ordered) are read again with
// every row held and sorted once (trace.SortLogs) into a fresh
// observer; the Ingest is then SortLogs'.
// Either way the result is Observe's, or with figs Characterize's, of
// the logs' trace. A timeout the observer refuses fails before a log is
// read.
func ObserveLogs(dir string, days int, timeout int64, figs *FigureOptions, w io.Writer) (*Characterization, trace.Ingest, error) {
	paths, err := findLogs(dir)
	if err != nil {
		return nil, trace.Ingest{}, err
	}
	rows := 0
	for _, path := range paths {
		rows += wmslog.EntryHint(path)
	}
	horizon := int64(days) * 86400
	o, err := NewObserver(horizon, timeout, rows, 0, figs)
	if err != nil {
		return nil, trace.Ingest{}, err
	}
	ing, err := trace.StreamLogs(paths, wmslog.TraceEpoch, horizon, o.Add)
	if err != nil {
		return nil, ing, err
	}
	if !ing.Ordered {
		if o, err = NewObserver(horizon, timeout, rows, 0, figs); err != nil {
			return nil, ing, err
		}
		if ing, err = trace.SortLogs(paths, wmslog.TraceEpoch, horizon, o.Add); err != nil {
			return nil, ing, err
		}
	}
	writeIngest(w, ing.Stats, len(paths), ing.Report)
	o.SetNames(ing.Names)
	char, err := o.Characterization()
	return char, ing, err
}

// Observe runs the calibration core of the Sections 3–5 pipeline on an
// already-sanitized trace: Table 1, the diversity counts, the binned
// session arrivals, and each layer's samples and the fits the model
// takes. It is an Observer walked over the trace's transfers: it draws
// nothing at random, so it takes no seed, and it leaves Figures nil.
//
//lsm:keep -- test oracle: the core, calibrate, trace and root tests observe a trace; ROADMAP item 19 moves it into the tests
func Observe(tr *trace.Trace, timeout int64) (*Characterization, error) {
	return observeTrace(tr, timeout, nil)
}

// Characterize runs the whole Sections 3–5 pipeline on an
// already-sanitized trace: an Observer given FigureOptions{sweep, seed}
// walked over the trace's transfers. sweep holds the Figure 9 timeouts
// (nil selects DefaultTimeoutSweep); seed drives the Figure 6 Poisson
// replica, so equal (trace, seed) pairs characterize identically.
//
//lsm:keep -- benchmark/layers/core.go and pipeline.go probes, and the tests' oracle; ROADMAP item 4a deletes
func Characterize(tr *trace.Trace, timeout int64, sweep []int64, seed int64) (*Characterization, error) {
	return observeTrace(tr, timeout, &FigureOptions{Sweep: sweep, Seed: seed})
}

// observeTrace walks tr's transfers into an Observer given figs.
//
//lsm:keep -- Observe and Characterize, which only benchmark/ and tests reach; ROADMAP item 4a deletes
func observeTrace(tr *trace.Trace, timeout int64, figs *FigureOptions) (*Characterization, error) {
	clients := 0 // the ids a direct client table spans
	for i := range tr.Transfers {
		clients = max(clients, int(tr.Transfers[i].Client)+1)
	}
	o, err := NewObserver(tr.Horizon, timeout, tr.NumTransfers(), clients, figs)
	if err != nil {
		return nil, err
	}
	o.SetNames(tr.Names)
	for i := range tr.Transfers {
		o.Add(&tr.Transfers[i])
	}
	return o.Characterization()
}

// Observer is the Sections 3–5 pipeline taken one transfer at a time:
// fed a sanitized trace's transfers in the trace order (Start, Client,
// Object, then every other field — what trace.New sorts into and
// trace.Stream emits), it characterizes that trace without the trace.
// It holds, per client, the open session at T_o (sessions.Sessionizer),
// a compact span per session, the population census
// (trace.CensusCounter), the concurrency events and the per-transfer
// samples (analyze.TransferAccumulator) — nothing that refers back to a
// transfer. With FigureOptions the Sessionizer also tallies Figure 9's
// silent gaps, the accumulator keeps Figure 18's bins and Figure 20's
// bandwidths, and a trace.Auditor sweeps the server load.
type Observer struct {
	horizon, timeout int64
	countries        []string // the country table the transfers' ids index

	sessions  *sessions.Sessionizer
	transfers *analyze.TransferAccumulator
	census    *trace.CensusCounter

	figs     *FigureOptions // nil: the calibration core only
	sweepErr error          // why the Figure 9 sweep cannot run
	audit    *trace.Auditor // nil without figs

	n     int
	bytes int64
}

// NewObserver returns an observer for a trace of horizon seconds at
// session timeout T_o, with room for transfers transfers and for client
// ids in [0, clients) — 0 for either if unknown — that gathers the
// figure material too if figs is not nil. A non-positive timeout is
// sessions.ErrBadTimeout; a bad sweep timeout is reported in the figure
// step's order by Characterization.
func NewObserver(horizon, timeout int64, transfers, clients int, figs *FigureOptions) (*Observer, error) {
	z, err := sessions.NewSessionizer(timeout, clients)
	if err != nil {
		return nil, err
	}
	o := &Observer{
		horizon:   horizon,
		timeout:   timeout,
		sessions:  z,
		transfers: analyze.NewTransferAccumulator(horizon, transfers, figs != nil),
		census:    trace.NewCensusCounter(0, 0),
		figs:      figs,
	}
	if figs != nil {
		sweep := figs.Sweep
		if sweep == nil {
			sweep = DefaultTimeoutSweep
		}
		o.sweepErr = z.TallyGaps(sweep)
		o.audit = trace.NewAuditor(horizon, auditThreshold)
	}
	return o, nil
}

// SetNames gives the observer the tables the transfers' IP and Country
// ids index (trace.Names): it keeps the country names, which key the
// country shares. It counts nothing, so it may come at any time before
// Characterization — before the first transfer, as a serve run's Names
// sink sends them, or after the last, once a log ingest has numbered
// every file.
func (o *Observer) SetNames(n *trace.Names) {
	if n != nil {
		o.countries = n.Countries
	}
}

// Add takes the next transfer in the trace order.
func (o *Observer) Add(t *trace.Transfer) {
	o.sessions.Add(t)
	o.transfers.Add(t)
	o.census.Add(t)
	if o.audit != nil {
		o.audit.Add(t)
	}
	o.n++
	o.bytes += t.Bytes
}

// Characterization finishes the core over the transfers added: the
// client, session and transfer layers and the diversity counts run as
// concurrent tasks. Each reads only the observer's state and writes
// only its own result — the session layer takes over the Sessionizer's
// samples, which no other task reads — so the Characterization is the
// same at any GOMAXPROCS, and a failure is reported in the fixed layer
// order below whichever task hit it first. The figure step, if asked
// for, then runs its tasks the same way, so the core's errors come
// before its. The observer is used up.
func (o *Observer) Characterization() (*Characterization, error) {
	char := &Characterization{Horizon: o.horizon, Timeout: o.timeout}
	names := &trace.Names{Countries: o.countries}
	err := firstError(
		func() (err error) {
			if char.Client, err = analyze.ClientLayerFrom(o.sessions, o.horizon); err != nil {
				return taskError("client layer", err)
			}
			if bins, err := stats.NewOnlineBins(o.horizon, analyze.TemporalBin); err == nil {
				for s := range o.sessions.Spans() {
					bins.Add(s.Start)
				}
				char.ArrivalBins = bins.Series()
			}
			return nil
		},
		func() (err error) {
			char.Session, err = analyze.SessionLayerFrom(o.sessions)
			return taskError("session layer", err)
		},
		func() (err error) {
			char.Transfer, err = o.transfers.Layer()
			return taskError("transfer layer", err)
		},
		func() (err error) {
			if char.Divers, err = analyze.DiversityFrom(o.census.Census(), o.n, names); err == nil {
				char.Basic = BasicStats{
					Days:       int(o.horizon / 86400),
					Objects:    len(char.Divers.ObjectShare),
					ASes:       char.Divers.NumAS,
					IPs:        char.Divers.NumIPs,
					Users:      o.sessions.Clients(),
					Sessions:   o.sessions.Sessions(),
					Transfers:  o.n,
					TotalBytes: o.bytes,
				}
			}
			return taskError("diversity", err)
		},
	)
	if err != nil {
		return nil, err
	}
	if o.figs != nil {
		if char.Figures, err = o.figures(char); err != nil {
			return nil, err
		}
	}
	return char, nil
}

// figures is the figure step over the core char: each task reads char
// and the observer's state and writes only its own part of the result.
func (o *Observer) figures(char *Characterization) (*FigureData, error) {
	figs := &FigureData{Audit: o.audit.Audit()}
	err := firstError(
		func() (err error) {
			if figs.Client, err = analyze.DescribeClientLayer(o.sessions); err != nil {
				return taskError("client layer", err)
			}
			if len(char.ArrivalBins.Values) > 0 { // empty only if the arrivals could not be binned
				figs.Poisson = poissonReplica(char.ArrivalBins, o.horizon, char.Client.Interarrivals, o.figs.Seed)
			}
			return nil
		},
		func() (err error) {
			figs.Session, err = analyze.DescribeSessionLayer(o.sessions, char.Session)
			return taskError("session layer", err)
		},
		func() (err error) {
			binned, bandwidths := o.transfers.Figures()
			figs.Transfer, err = analyze.DescribeTransferLayer(char.Transfer, binned, bandwidths)
			return taskError("transfer layer", err)
		},
		func() error {
			if o.sweepErr != nil {
				return taskError("timeout sweep", o.sweepErr)
			}
			figs.Sweep = o.sessions.Sweep()
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	return figs, nil
}

// taskError names the task a non-nil err came from.
func taskError(task string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", task, err)
	}
	return nil
}

// firstError runs the tasks concurrently, waits for all of them, and
// returns the error of the first task in argument order that failed.
func firstError(tasks ...func() error) error {
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = task()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BuildPoissonReplica reproduces the Figure 6 experiment: read the mean
// arrival rate per 15-minute slot of the day off the measured session
// arrivals, synthesize a piecewise-stationary Poisson arrival stream over
// the same horizon, and compare interarrival distributions. The
// synthetic draws come from a splitmix generator on the seed's
// dedicated replica lane.
//
// measured is the client interarrival sample in its ⌊t+1⌋ display form
// — ClientLayer.Interarrivals, which is stored sorted and so is read in
// place; a sample in any other order is sorted into a temporary copy.
//
//lsm:keep -- benchmark/layers/core.go probe; ROADMAP item 4 deletes
func BuildPoissonReplica(set *sessions.Set, horizon int64, measured []float64, seed int64) PoissonReplica {
	counts, err := stats.BinCounts(set.ArrivalTimes(), horizon, analyze.TemporalBin)
	if err != nil {
		return PoissonReplica{}
	}
	return poissonReplica(counts, horizon, measured, seed)
}

// poissonReplica is BuildPoissonReplica over the session arrivals
// already counted per TemporalBin — Observe's ArrivalBins.
func poissonReplica(counts stats.BinnedSeries, horizon int64, measured []float64, seed int64) PoissonReplica {
	const window = analyze.TemporalBin // 900 s, the paper's 15 minutes
	rng := randv2.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), lanePoissonReplica)))
	dayFold, err := counts.FoldModulo(86400)
	if err != nil {
		return PoissonReplica{}
	}
	rateOf := func(t float64) float64 {
		slot := int(int64(t)%86400) / int(window)
		if slot < 0 || slot >= len(dayFold.Values) {
			return 0
		}
		return dayFold.Values[slot] / float64(window)
	}
	pp, err := dist.NewPiecewisePoisson(rateOf, float64(window))
	if err != nil {
		return PoissonReplica{}
	}
	// The arrival count is Poisson with the integrated rate as its mean:
	// five standard deviations over it hold every gap in one allocation
	// but with vanishing odds.
	expected := pp.ExpectedCount(float64(horizon))
	gaps := make([]float64, 0, int(expected+5*math.Sqrt(expected))+1)
	prev, started := 0.0, false
	pp.EachArrivalV2(rng, float64(horizon), func(t float64) {
		if started {
			gaps = append(gaps, stats.LogDisplayValue(t-prev))
		}
		prev, started = t, true
	})
	stats.SortInPlace(gaps)
	rep := PoissonReplica{Interarrivals: gaps, Window: int64(window)}
	if len(gaps) > 0 && len(measured) > 0 {
		if ks, err := dist.KolmogorovSmirnov2(measured, gaps); err == nil {
			rep.KS = ks
		}
	}
	return rep
}
