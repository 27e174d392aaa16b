// Package core is the end-to-end reproduction pipeline of Veloso et al.,
// "A Hierarchical Characterization of a Live Streaming Media Workload"
// (IMC 2002).
//
// It wires the substrates together:
//
//	gismo.NewStreamSeeded -> synthetic request stream (Section 6 model)
//	simulate.RunStream    -> served transfers, as the WMS-style log holds them
//	trace.Collector       -> Section 2.4 cleaning (trace.Stream for the twin)
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
	"errors"
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

// ErrBadConfig reports invalid pipeline configuration.
var ErrBadConfig = errors.New("core: bad config")

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
	// SessionTimeout is T_o in seconds (paper: 1,500).
	SessionTimeout int64
	// TimeoutSweep holds the T_o values for the Figure 9 sensitivity
	// curve; nil selects DefaultTimeoutSweep.
	TimeoutSweep []int64
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
		Model:          m,
		Server:         simulate.DefaultConfig(),
		SessionTimeout: sessions.DefaultTimeout,
		Seed:           seed,
	}, nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Server.Validate(); err != nil {
		return err
	}
	if c.SessionTimeout <= 0 {
		return fmt.Errorf("%w: session timeout %d", ErrBadConfig, c.SessionTimeout)
	}
	return nil
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
// Observe fills the calibration core — every field calibrate.Fit,
// calibrate.Validate and lsmcal's report read — and leaves Figures nil;
// Characterize fills Figures too, which with the core is all the
// material behind Figures 2–20.
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

	// Figures is the figure-only material: nil after Observe, set by
	// Characterize.
	Figures *FigureData
}

// FigureData is what only the paper's figures, lsmchar's report and the
// paper comparison read: the figure-only part of each layer, the
// Figure 9 timeout sweep and the Figure 6 Poisson replica.
type FigureData struct {
	Client   *analyze.ClientFigures
	Session  *analyze.SessionFigures
	Transfer *analyze.TransferFigures
	Sweep    []sessions.SweepPoint

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

// Run executes the full pipeline: generate and serve (Serve), then
// characterize the sanitized trace and audit its server load.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := Serve(cfg.Model, cfg.Server, cfg.Seed)
	if err != nil {
		return nil, err
	}
	char, err := Characterize(s.Trace, cfg.SessionTimeout, cfg.TimeoutSweep, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Report{
		Config:   cfg,
		Sanitize: s.Sanitize,
		Audit:    s.Trace.AuditServerLoad(10),
		Peak:     s.Peak,
		Char:     char,
	}, nil
}

// Served is a model's workload as its server logged it: Serve's result.
type Served struct {
	// Trace is the log's trace, sanitized (Section 2.4).
	Trace *trace.Trace
	// Sanitize is what sanitizing dropped: the spanning entries the
	// server injected (simulate.Config.SpanningPerMillion) and any
	// transfer that escapes the horizon.
	Sanitize trace.SanitizeReport
	// Peak is the peak number of concurrent transfers in the simulator.
	Peak int
	// Sessions is the number of sessions the generator emitted.
	Sessions int
}

// Serve generates m's workload from seed on the sharded event stream
// (gismo.DefaultShards), serves it (simulate.RunStream) and returns the
// trace its log holds, sanitized — the model → trace path behind Run
// and the examples. The served rows, the injected spanning entries'
// included, go straight into a trace.Collector: no workload, log or
// entry slice is materialized, and the trace equals the one
// trace.FromEntries rebuilds from the same run's log (up to how the two
// number clients and IPs). The result is a pure function of
// (m, server, seed) at any GOMAXPROCS.
func Serve(m gismo.Model, server simulate.Config, seed int64) (*Served, error) {
	var c trace.Collector
	res, sessions, err := serve(m, server, seed, simulate.StreamSinks{
		Transfer: func(t trace.Transfer) error {
			c.Add(t)
			return nil
		},
		Names: func(n *trace.Names) { c.Names = n },
	})
	if err != nil {
		return nil, err
	}
	clean, report, err := c.Trace(m.Horizon)
	if err != nil {
		return nil, err
	}
	return &Served{Trace: clean, Sanitize: report, Peak: res.PeakConcurrency, Sessions: sessions}, nil
}

// ObserveServed is Observe of Serve's trace, with no trace built: the
// served rows are sanitized and put in the trace order as they come
// (trace.Stream) and fed straight into an Observer. The result equals
// Observe(Serve(m, server, seed).Trace, timeout) — the calibration
// twin's path (calibrate.Twin).
func ObserveServed(m gismo.Model, server simulate.Config, seed, timeout int64) (*Characterization, error) {
	o, err := NewObserver(m.Horizon, timeout, 0, m.NumClients)
	if err != nil {
		return nil, err
	}
	rows, err := trace.NewStream(m.Horizon, o.Add)
	if err != nil {
		return nil, err
	}
	if _, _, err := serve(m, server, seed, simulate.StreamSinks{Transfer: rows.Add, Names: o.SetNames}); err != nil {
		return nil, err
	}
	rows.Close()
	return o.Characterization()
}

// serve is the one model → rows driver under Serve and ObserveServed:
// it runs m's sharded event stream from seed through the server into
// sinks, and returns the run's summary and the number of sessions the
// generator emitted.
func serve(m gismo.Model, server simulate.Config, seed int64, sinks simulate.StreamSinks) (*simulate.StreamResult, int, error) {
	ws, err := gismo.NewStreamSeeded(m, seed, gismo.DefaultShards())
	if err != nil {
		return nil, 0, fmt.Errorf("generate: %w", err)
	}
	defer ws.Close()
	res, err := simulate.RunStream(ws, ws.Population(), m.Horizon, server, uint64(seed), sinks)
	if err != nil {
		return nil, 0, fmt.Errorf("simulate: %w", err)
	}
	return res, ws.Sessions(), nil
}

// LoadLogs is the front half every log-reading command shares: find the
// daily wms-*.log files under dir (text, gzip or framed binary), parse
// them tolerantly, rebuild the trace over a days-long horizon and
// sanitize it (Section 2.4) — one pass from bytes to trace
// (trace.FromLogs), a file per core. The parse and sanitize summaries
// are written to w.
func LoadLogs(dir string, days int, w io.Writer) (*trace.Trace, error) {
	paths, err := findLogs(dir)
	if err != nil {
		return nil, err
	}
	clean, st, sanReport, err := trace.FromLogs(paths, wmslog.TraceEpoch, int64(days)*86400)
	if err != nil {
		return nil, err
	}
	writeIngest(w, st, len(paths), sanReport)
	return clean, nil
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

// ObserveLogs is Observe(LoadLogs(dir, days, w), timeout) with no trace
// built: the logs' rows go from the ingest's merge (trace.StreamLogs)
// straight into an Observer, so what is held is the observer's state
// and a few files' rows. The characterization and what is written to w
// are LoadLogs' and Observe's. Logs whose files reach back further than
// a daily harvest's (the returned Ingest is not Ordered), and a timeout
// the observer refuses, take that path itself; the Ingest is then the
// stream's, as far as it went. The streamed Ingest's Names hold the
// countries only (see trace.StreamLogs): the observer reads no IP name.
func ObserveLogs(dir string, days int, timeout int64, w io.Writer) (*Characterization, trace.Ingest, error) {
	paths, err := findLogs(dir)
	if err != nil {
		return nil, trace.Ingest{}, err
	}
	rows := 0
	for _, path := range paths {
		rows += wmslog.EntryHint(path)
	}
	horizon := int64(days) * 86400
	var ing trace.Ingest
	if o, err := NewObserver(horizon, timeout, rows, 0); err == nil {
		if ing, err = trace.StreamLogs(paths, wmslog.TraceEpoch, horizon, o.Add); err != nil {
			return nil, ing, err
		}
		if ing.Ordered {
			writeIngest(w, ing.Stats, len(paths), ing.Report)
			o.SetNames(ing.Names)
			char, err := o.Characterization()
			return char, ing, err
		}
	}
	clean, err := LoadLogs(dir, days, w)
	if err != nil {
		return nil, ing, err
	}
	char, err := Observe(clean, timeout)
	return char, ing, err
}

// Observe runs the calibration core of the Sections 3–5 pipeline on an
// already-sanitized trace: Table 1, the diversity counts, the binned
// session arrivals, and each layer's samples and the fits the model
// takes. It is an Observer walked over the trace's transfers: it draws
// nothing at random, so it takes no seed, and it leaves Figures nil.
func Observe(tr *trace.Trace, timeout int64) (*Characterization, error) {
	char, _, err := observe(tr, timeout)
	return char, err
}

// observe is Observe, also returning the sessions it observed.
func observe(tr *trace.Trace, timeout int64) (*Characterization, *sessions.Sessionizer, error) {
	clients := 0 // the ids a direct client table spans
	for i := range tr.Transfers {
		clients = max(clients, int(tr.Transfers[i].Client)+1)
	}
	o, err := NewObserver(tr.Horizon, timeout, tr.NumTransfers(), clients)
	if err != nil {
		return nil, nil, err
	}
	o.SetNames(tr.Names)
	for i := range tr.Transfers {
		o.Add(&tr.Transfers[i])
	}
	char, err := o.Characterization()
	return char, o.sessions, err
}

// Observer is the calibration core taken one transfer at a time: fed a
// sanitized trace's transfers in the trace order (trace order: Start,
// Client, Object, then every other field — what trace.New sorts into
// and trace.Stream emits), it returns the Characterization Observe
// returns for that trace, without the trace. It holds, per client, the
// open session at T_o (sessions.Sessionizer), a compact span per
// session, the population census (trace.CensusCounter), the
// concurrency events and the per-transfer samples
// (analyze.TransferAccumulator) — nothing that refers back to a
// transfer.
type Observer struct {
	horizon, timeout int64
	countries        []string // the country table the transfers' ids index

	sessions  *sessions.Sessionizer
	transfers *analyze.TransferAccumulator
	census    *trace.CensusCounter

	n     int
	bytes int64
}

// NewObserver returns an observer for a trace of horizon seconds at
// session timeout T_o, with room for transfers transfers and for client
// ids in [0, clients) — 0 for either if unknown. A non-positive timeout
// is sessions.ErrBadTimeout, as for Sessionize.
func NewObserver(horizon, timeout int64, transfers, clients int) (*Observer, error) {
	z, err := sessions.NewSessionizer(timeout, clients)
	if err != nil {
		return nil, err
	}
	return &Observer{
		horizon:   horizon,
		timeout:   timeout,
		sessions:  z,
		transfers: analyze.NewTransferAccumulator(horizon, transfers),
		census:    trace.NewCensusCounter(0, 0),
	}, nil
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
	o.n++
	o.bytes += t.Bytes
}

// Characterization finishes the core over the transfers added: the
// client, session and transfer layers and the diversity counts run as
// concurrent tasks. Each reads only the observer's state and writes
// only its own result — the session layer takes over the Sessionizer's
// samples, which no other task reads — so the Characterization is the
// same at any GOMAXPROCS, and a failure is reported in the fixed layer
// order below whichever task hit it first. The observer is used up.
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
	return char, nil
}

// Characterize runs the whole Sections 3–5 pipeline on an
// already-sanitized trace: Observe, then the figure step that fills
// Figures from the trace, the sessions Observe found and the core.
// sweep holds the Figure 9 timeouts (nil selects DefaultTimeoutSweep).
// seed drives the Figure 6 Poisson replica through a dedicated
// splitmix lane (lanePoissonReplica), so equal (trace, seed) pairs
// characterize identically — the measurement side honors the same
// determinism contract as the generator and the server.
//
// The figure step's tasks run concurrently like Observe's, each
// reading the core and writing only its own part of Figures, so the
// result does not depend on GOMAXPROCS either; an error is reported in
// the same layer order, Observe's before the figure step's.
func Characterize(tr *trace.Trace, timeout int64, sweep []int64, seed int64) (*Characterization, error) {
	char, z, err := observe(tr, timeout)
	if err != nil {
		return nil, err
	}
	if char.Figures, err = describe(tr, z, char, sweep, seed); err != nil {
		return nil, err
	}
	return char, nil
}

// describe is the figure step: everything Characterize adds to
// Observe's core.
func describe(tr *trace.Trace, z *sessions.Sessionizer, char *Characterization, sweep []int64, seed int64) (*FigureData, error) {
	if sweep == nil {
		sweep = DefaultTimeoutSweep
	}
	figs := &FigureData{}
	tr.ByClient() // built once here: two of the tasks read it
	err := firstError(
		func() (err error) {
			if figs.Client, err = analyze.DescribeClientLayer(tr); err != nil {
				return taskError("client layer", err)
			}
			if len(char.ArrivalBins.Values) > 0 { // empty only if the arrivals could not be binned
				figs.Poisson = poissonReplica(char.ArrivalBins, tr.Horizon, char.Client.Interarrivals, seed)
			}
			return nil
		},
		func() (err error) {
			figs.Session, err = analyze.DescribeSessionLayer(z, char.Session)
			return taskError("session layer", err)
		},
		func() (err error) {
			figs.Transfer, err = analyze.DescribeTransferLayer(tr, char.Transfer)
			return taskError("transfer layer", err)
		},
		func() (err error) {
			figs.Sweep, err = sessions.SweepTimeout(tr, sweep)
			return taskError("timeout sweep", err)
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
