// Command lsmload replays generated live-streaming workloads against a
// running lsmserve over real TCP — the load-generation half of the
// closed loop generate → scenario-transform → replay → re-analyze.
//
// Replay mode generates a workload with the sharded GISMO generator,
// optionally reshapes it with scenario transforms, and drives the
// server on a virtual clock:
//
//	lsmload -addr 127.0.0.1:8555 -scale 3000 -hours 1 -seed 7 \
//	        -compression 600 -conns 256 \
//	        [-thin 0.9] [-churn 0.3:1.5] [-speedup 2] [-warp 0.8:86400] \
//	        [-flash at:dur:sessions]... [-meta meta.json]
//
// -meta records the replay's virtual-clock anchors and the full
// workload/scenario specification. Check mode then regenerates the
// offered workload from that record, scans the servers' transfer logs
// once — one -logs per file or directory, as many as the fleet had
// nodes, text or binary, gzip transparent — onto the trace clock,
// reconciles them by event identity and verifies the served workload
// matches the offered one exactly at session and transfer granularity.
// It prints the realization digest of every logged entry, equal for
// any split of the same served transfers over nodes:
//
//	lsmload -check meta.json -logs node1.log [-logs node2.log]...
//
// It exits non-zero on a mismatch, which is what makes it a CI gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/gismo"
	"repro/internal/loadgen"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

func main() {
	var (
		addr  = flag.String("addr", "", "lsmserve (or, with -frontend, lsmfleet) address to replay against (required unless -check)")
		check = flag.String("check", "", "meta JSON from a previous replay: validate the server log instead of replaying")
		logs  multiFlag
		meta  = flag.String("meta", "", "write replay metadata JSON here (enables a later -check)")

		scale   = flag.Float64("scale", 3000, "population/rate scale-down factor (1 = paper scale)")
		days    = flag.Int("days", 1, "trace horizon in days")
		hours   = flag.Int("hours", 0, "trace horizon in hours (overrides -days when > 0)")
		seed    = flag.Int64("seed", 1, "generator seed")
		shards  = flag.Int("shards", 0, "generator shards (0 = one per CPU)")
		rate    = flag.Float64("rate", 0, "override the model's base arrival rate in sessions/second (0 = model default)")
		noRamp  = flag.Bool("no-ramp", false, "disable the premiere ramp-up (recommended for sub-day horizons)")
		maxTx   = flag.Int("max-transfers", 0, "cap replayed transfers (0 = all)")
		scnSeed = flag.Int64("scenario-seed", 1, "seed for scenario transforms")

		thin    = flag.Float64("thin", 0, "keep each session with this probability (0 = off)")
		churn   = flag.String("churn", "", "viewer churn as frac:meanKept, e.g. 0.3:1.5")
		speedup = flag.Float64("speedup", 0, "compress trace time by this factor before replay (0 = off)")
		warp    = flag.String("warp", "", "diurnal reshaping as amplitude:period, e.g. 0.8:86400")
		flash   = multiFlag{}

		compression = flag.Float64("compression", 600, "trace seconds per wall second")
		conns       = flag.Int("conns", 256, "connection budget (pooled + overflow)")
		minWatch    = flag.Duration("min-watch", 40*time.Millisecond, "floor on per-transfer wall watch time")
		idleConn    = flag.Duration("idle-conn", 2*time.Second, "idle pooled connection retirement age")
		timeout     = flag.Int64("timeout", 0, "session timeout for -check (0 = widest-void auto pick)")
		frontend    = flag.Bool("frontend", false, "-addr is an lsmfleet redirector: resolve each (client, object) route through it and follow one redirect hop")
		maxFail     = flag.Int("max-failures", 0, "tolerate up to this many lost transfers (failover runs); lost events are recorded in -meta so -check can exclude exactly them")

		profiles prof.Profiles
	)
	flag.Var(&flash, "flash", "inject a flash crowd as at:dur:sessions (trace seconds); repeatable")
	flag.Var(&logs, "logs", "a server transfer log (file or directory of daily logs) for -check; repeatable, one per fleet node")
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Resolve the mode before starting any profile, so a usage error
	// never exits with an unflushed (truncated) cpu/trace artifact.
	switch {
	case *check != "":
		if len(logs) == 0 {
			fmt.Fprintln(os.Stderr, "lsmload: -check requires -logs")
			os.Exit(2)
		}
	case *addr != "":
	default:
		fmt.Fprintln(os.Stderr, "lsmload: either -addr (replay) or -check (validate) is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmload:", err)
		os.Exit(1)
	}

	sp := spec{
		Scale: *scale, Days: *days, Hours: *hours, Seed: *seed, Shards: *shards,
		Rate: *rate, NoRamp: *noRamp, MaxTransfers: *maxTx, ScenarioSeed: *scnSeed,
		Thin: *thin, Churn: *churn, SpeedUp: *speedup, Warp: *warp, Flash: flash,
	}

	var err error
	if *check != "" {
		err = runCheck(*check, logs, *timeout, os.Stdout)
	} else {
		ro := replayOpts{
			Compression: *compression, Conns: *conns, MinWatch: *minWatch,
			IdleConn: *idleConn, Frontend: *frontend, MaxFailures: *maxFail,
		}
		err = runReplay(*addr, sp, ro, *meta, os.Stdout)
	}
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmload:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated -flash and -logs values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// spec is the full workload + scenario parameterization. It is what
// -meta persists: check mode rebuilds the identical offered workload
// from it, which is only possible because generation and every
// transform are deterministic in their seeds.
type spec struct {
	Scale        float64  `json:"scale"`
	Days         int      `json:"days"`
	Hours        int      `json:"hours"`
	Seed         int64    `json:"seed"`
	Shards       int      `json:"shards"`
	Rate         float64  `json:"rate"`
	NoRamp       bool     `json:"no_ramp"`
	MaxTransfers int      `json:"max_transfers"`
	ScenarioSeed int64    `json:"scenario_seed"`
	Thin         float64  `json:"thin,omitempty"`
	Churn        string   `json:"churn,omitempty"`
	SpeedUp      float64  `json:"speedup,omitempty"`
	Warp         string   `json:"warp,omitempty"`
	Flash        []string `json:"flash,omitempty"`
}

// replayOpts bundles the wire-level replay knobs.
type replayOpts struct {
	Compression float64
	Conns       int
	MinWatch    time.Duration
	IdleConn    time.Duration
	// Frontend marks the target as a fleet redirector; MaxFailures is
	// how many lost transfers a (failover) replay may shed and still
	// succeed — the lost events land in the meta for exact validation.
	Frontend    bool
	MaxFailures int
}

// eventRef identifies one workload event — the granularity lost
// transfers are recorded and excluded at.
type eventRef struct {
	Session int `json:"session"`
	Seq     int `json:"seq"`
}

// metaFile anchors a finished replay for later validation.
type metaFile struct {
	Spec          spec       `json:"spec"`
	BeginUnixNano int64      `json:"begin_unix_nano"`
	Origin        int64      `json:"origin_trace_sec"`
	Compression   float64    `json:"compression"`
	Attempted     int        `json:"attempted"`
	Completed     int        `json:"completed"`
	Frontend      bool       `json:"frontend,omitempty"`
	Failed        []eventRef `json:"failed,omitempty"`
}

// model builds the generator model for the spec.
func (sp *spec) model() (gismo.Model, error) {
	m, err := gismo.Scaled(sp.Scale, max(sp.Days, 1))
	if err != nil {
		return m, err
	}
	if sp.Hours > 0 {
		m.Horizon = int64(sp.Hours) * 3600
	}
	if sp.Rate > 0 {
		m.BaseArrivalRate = sp.Rate
	}
	if sp.NoRamp {
		m.RampUpDays = 0
	}
	return m, m.Validate()
}

// transform builds the scenario chain for the spec.
func (sp *spec) transform(m gismo.Model) (scenario.Transform, error) {
	var ts []scenario.Transform
	if sp.Thin > 0 {
		t, err := scenario.Thin(sp.Thin, sp.ScenarioSeed)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	if sp.Churn != "" {
		frac, mean, err := parsePair(sp.Churn, "churn")
		if err != nil {
			return nil, err
		}
		t, err := scenario.Churn(frac, mean, sp.ScenarioSeed)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	if sp.SpeedUp > 0 {
		w, err := scenario.SpeedUp(sp.SpeedUp)
		if err != nil {
			return nil, err
		}
		t, err := scenario.TimeWarp(w)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	if sp.Warp != "" {
		amp, period, err := parsePair(sp.Warp, "warp")
		if err != nil {
			return nil, err
		}
		w, err := scenario.Diurnal(amp, int64(period))
		if err != nil {
			return nil, err
		}
		t, err := scenario.TimeWarp(w)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	for i, f := range sp.Flash {
		fc, err := parseFlash(f)
		if err != nil {
			return nil, err
		}
		fc.Clients = m.NumClients
		fc.Objects = m.NumObjects
		fc.Horizon = m.Horizon
		// Disjoint session-index bands per injection.
		fc.SessionBase = scenario.FlashSessionBase + i*(1<<24)
		t, err := fc.Inject(sp.ScenarioSeed)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return scenario.Chain(ts...), nil
}

// stream opens the transformed workload stream.
func (sp *spec) stream() (workload.Stream, gismo.Model, error) {
	m, err := sp.model()
	if err != nil {
		return nil, m, err
	}
	chain, err := sp.transform(m)
	if err != nil {
		return nil, m, err
	}
	shards := sp.Shards
	if shards == 0 {
		shards = gismo.DefaultShards()
	}
	ws, err := gismo.NewStreamSeeded(m, sp.Seed, shards)
	if err != nil {
		return nil, m, err
	}
	return chain(ws), m, nil
}

// offeredEvents materializes the replayed event prefix for validation.
func (sp *spec) offeredEvents() ([]workload.Event, gismo.Model, error) {
	s, m, err := sp.stream()
	if err != nil {
		return nil, m, err
	}
	defer workload.CloseStream(s)
	var events []workload.Event
	for {
		if sp.MaxTransfers > 0 && len(events) >= sp.MaxTransfers {
			break
		}
		e, ok := s.Next()
		if !ok {
			break
		}
		events = append(events, e)
	}
	return events, m, nil
}

func runReplay(addr string, sp spec, ro replayOpts, metaPath string, out *os.File) error {
	stream, m, err := sp.stream()
	if err != nil {
		return err
	}
	defer workload.CloseStream(stream)

	cfg := loadgen.DefaultConfig()
	cfg.Compression = ro.Compression
	cfg.MaxConns = ro.Conns
	cfg.MinWatch = ro.MinWatch
	cfg.IdleConn = ro.IdleConn
	cfg.MaxTransfers = sp.MaxTransfers
	cfg.Frontend = ro.Frontend

	target := "server"
	if ro.Frontend {
		target = "fleet front-end"
	}
	fmt.Fprintf(out, "replaying %d-client model (horizon %ds) against %s %s at %gx compression\n",
		m.NumClients, m.Horizon, target, addr, ro.Compression)
	res, err := loadgen.Replay(addr, stream, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res)

	if metaPath != "" {
		mf := metaFile{
			Spec:          sp,
			BeginUnixNano: res.Begin.UnixNano(),
			Origin:        res.Origin,
			Compression:   res.Compression,
			Attempted:     res.Attempted,
			Completed:     res.Completed,
			Frontend:      ro.Frontend,
		}
		for _, ev := range res.FailedEvents {
			mf.Failed = append(mf.Failed, eventRef{Session: ev.Session, Seq: ev.Seq})
		}
		data, err := json.MarshalIndent(&mf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(metaPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "replay metadata written to %s\n", metaPath)
	}
	if res.Failed > ro.MaxFailures {
		return fmt.Errorf("%d of %d transfers failed (max-failures %d)", res.Failed, res.Attempted, ro.MaxFailures)
	}
	return nil
}

// readMeta decodes a -meta record as strictly as gismo.LoadModel
// decodes a model spec: an unknown field at any level (a misspelled
// "failed" would leave the lost events in the offered side and blame
// the server) or bytes after the record are refused, and so is a
// compression that cannot map the log back onto the trace clock.
func readMeta(path string) (metaFile, error) {
	var mf metaFile
	data, err := os.ReadFile(path)
	if err != nil {
		return mf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		return mf, fmt.Errorf("parse meta %s: %w", path, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return mf, fmt.Errorf("parse meta %s: trailing data after the record", path)
	}
	if !(mf.Compression > 0) {
		return mf, fmt.Errorf("meta %s: compression %v is not positive", path, mf.Compression)
	}
	return mf, nil
}

// servedLogs expands the -logs arguments into log files: a file as
// named, a directory into its daily logs. A directory holding no daily
// log would read as a server that served nothing, and a log named
// twice — by the same path, a symlink or a hard link — would reconcile
// away as duplicate serves: both are refused.
func servedLogs(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		fi, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			paths = append(paths, arg)
			continue
		}
		found, err := wmslog.FindLogs(arg)
		if err != nil {
			return nil, err
		}
		if len(found) == 0 {
			return nil, fmt.Errorf("no wms-*.log or wms-*.log.gz files under %s", arg)
		}
		paths = append(paths, found...)
	}
	seen := make([]os.FileInfo, 0, len(paths))
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if k := slices.IndexFunc(seen, func(o os.FileInfo) bool { return os.SameFile(o, fi) }); k >= 0 {
			return nil, fmt.Errorf("log %s is named twice (as %s)", path, paths[k])
		}
		seen = append(seen, fi)
	}
	return paths, nil
}

// runCheck validates the logs a replay's servers wrote against the
// offered workload regenerated from its meta record.
func runCheck(metaPath string, logs []string, timeout int64, out *os.File) error {
	mf, err := readMeta(metaPath)
	if err != nil {
		return err
	}
	paths, err := servedLogs(logs)
	if err != nil {
		return err
	}

	events, m, err := mf.Spec.offeredEvents()
	if err != nil {
		return err
	}
	if len(events) != mf.Attempted {
		return fmt.Errorf("regenerated %d events but the replay attempted %d — meta/spec drift", len(events), mf.Attempted)
	}
	// A failover replay records the transfers it lost; the served log
	// cannot contain them, so the offered side excludes exactly those.
	lostEvents := make([]workload.Event, 0, len(mf.Failed))
	if len(mf.Failed) > 0 {
		lost := make(map[eventRef]bool, len(mf.Failed))
		for _, ref := range mf.Failed {
			lost[ref] = true
			lostEvents = append(lostEvents, workload.Event{Session: ref.Session, Seq: ref.Seq})
		}
		kept := events[:0]
		for _, ev := range events {
			if !lost[eventRef{Session: ev.Session, Seq: ev.Seq}] {
				kept = append(kept, ev)
			}
		}
		if len(events)-len(kept) != len(mf.Failed) {
			return fmt.Errorf("meta records %d lost transfers but only %d matched regenerated events", len(mf.Failed), len(events)-len(kept))
		}
		events = kept
		fmt.Fprintf(out, "excluding %d transfers lost during the replay\n", len(mf.Failed))
	}

	// A node that dies between committing a log entry and the client
	// reading END makes the raw logs disagree with the replay's
	// accounting (a recorded-lost event that was actually logged, or a
	// retry double-serving one event). The scan reconciles by event
	// identity and says so — the exactness claim below is over the
	// reconciled set; the realization digest is over every logged entry.
	served, st, err := loadgen.ReadServed(paths, time.Unix(0, mf.BeginUnixNano), mf.Origin, mf.Compression, lostEvents)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "parsed %d served entries (%d binary-framed, %d malformed skipped)\n", st.Entries, st.Binary, st.Malformed)
	fmt.Fprintf(out, "realization md5=%s\n", served.Realization())
	if served.DroppedLost > 0 || served.DroppedDup > 0 {
		fmt.Fprintf(out, "reconciled served log: dropped %d entries for recorded-lost events, %d duplicate serves\n",
			served.DroppedLost, served.DroppedDup)
	}

	if timeout == 0 {
		slack := int64(3 * mf.Compression)
		var ok bool
		timeout, ok = loadgen.SafeTimeout(events, m.Horizon, slack)
		if !ok {
			return fmt.Errorf("no session timeout is %d trace-seconds clear of every silent gap; lower -compression or pass -timeout", slack)
		}
		fmt.Fprintf(out, "auto-picked session timeout %d s (quantization slack %d s)\n", timeout, slack)
	}

	report, err := loadgen.Check(events, served, timeout)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, report)
	if !report.Match() {
		return fmt.Errorf("served workload does not match offered workload")
	}
	return nil
}

// parsePair splits "a:b" into two floats.
func parsePair(s, what string) (float64, float64, error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-%s wants a:b, got %q", what, s)
	}
	x, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-%s: %v", what, err)
	}
	y, err := strconv.ParseFloat(b, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("-%s: %v", what, err)
	}
	return x, y, nil
}

// parseFlash parses "at:dur:sessions".
func parseFlash(s string) (scenario.FlashCrowd, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return scenario.FlashCrowd{}, fmt.Errorf("-flash wants at:dur:sessions, got %q", s)
	}
	vals := make([]int64, 3)
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return scenario.FlashCrowd{}, fmt.Errorf("-flash %q: %v", s, err)
		}
		vals[i] = v
	}
	return scenario.FlashCrowd{At: vals[0], Duration: vals[1], Sessions: int(vals[2])}, nil
}
