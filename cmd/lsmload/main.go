// Command lsmload replays a live-streaming workload against a running
// lsmserve over real TCP — the load-generation half of the closed loop
// generate → replay → re-analyze.
//
// Replay mode generates the workload a model spec (the JSON that
// lsmgen -model reads and lsmgen -save-model and lsmcal -o write)
// describes at a seed — the same requests lsmgen -model spec.json
// -seed N logs — with the sharded GISMO generator, and drives the
// server on a virtual clock:
//
//	lsmload -addr 127.0.0.1:8555 -model spec.json -seed 7 \
//	        -compression 600 -conns 256 [-meta meta.json]
//
// A crowd is part of the model: its events (per_day,
// mean_duration_seconds, amplitude) draw the in-show bursts.
//
// -meta records the replay's virtual-clock anchors, the model spec
// verbatim, the seed and the transfer cap. Check mode then regenerates
// the offered workload from that record — the spec decoded as strictly
// as gismo.LoadModel decodes a file — scans the server's transfer log
// once — one -logs per file or directory, as many as the log spans,
// text or binary, gzip transparent — onto the trace clock, reconciles
// it by event identity and verifies the served workload matches the
// offered one exactly at session and transfer granularity. It prints
// the realization digest of every logged entry, equal for any split of
// the same served transfers over files:
//
//	lsmload -check meta.json -logs served.log [-logs more.log]...
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
	"strings"
	"time"

	"repro/internal/gismo"
	"repro/internal/loadgen"
	"repro/internal/prof"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// options collects the CLI parameters.
type options struct {
	addr, check, meta, model string
	logs                     multiFlag
	timeout                  int64
	replay                   replayOpts
}

// registerFlags binds the command's flags to o.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.addr, "addr", "", "lsmserve address to replay against (required unless -check)")
	fs.StringVar(&o.check, "check", "", "meta JSON from a previous replay: validate the server log instead of replaying")
	fs.Var(&o.logs, "logs", "a server transfer log (file or directory of daily logs) for -check; repeatable, one per file the log spans")
	fs.StringVar(&o.meta, "meta", "", "write replay metadata JSON here (enables a later -check)")

	fs.StringVar(&o.model, "model", "", "model spec JSON to replay, as lsmgen -model reads it (required unless -check)")
	fs.Int64Var(&o.replay.Seed, "seed", 1, "generator seed")
	fs.IntVar(&o.replay.Shards, "shards", 0, "generator shards (0 = one per CPU)")
	fs.IntVar(&o.replay.MaxTransfers, "max-transfers", 0, "cap replayed transfers (0 = all)")

	fs.Float64Var(&o.replay.Compression, "compression", 600, "trace seconds per wall second")
	fs.IntVar(&o.replay.Conns, "conns", 256, "connection budget (pooled + overflow)")
	fs.DurationVar(&o.replay.MinWatch, "min-watch", 40*time.Millisecond, "floor on per-transfer wall watch time")
	fs.DurationVar(&o.replay.IdleConn, "idle-conn", 2*time.Second, "idle pooled connection retirement age")
	fs.Int64Var(&o.timeout, "timeout", 0, "session timeout for -check (0 = widest-void auto pick)")
	fs.IntVar(&o.replay.MaxFailures, "max-failures", 0, "tolerate up to this many lost transfers; lost events are recorded in -meta so -check can exclude exactly them")
}

func main() {
	var o options
	var profiles prof.Profiles
	registerFlags(flag.CommandLine, &o)
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Resolve the mode before starting any profile, so a usage error
	// never exits with an unflushed (truncated) cpu/trace artifact.
	switch {
	case o.check != "":
		if len(o.logs) == 0 {
			fmt.Fprintln(os.Stderr, "lsmload: -check requires -logs")
			os.Exit(2)
		}
	case o.addr != "":
		if o.model == "" {
			fmt.Fprintln(os.Stderr, "lsmload: -addr requires -model")
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "lsmload: either -addr (replay) or -check (validate) is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmload:", err)
		os.Exit(1)
	}

	var err error
	if o.check != "" {
		err = runCheck(o.check, o.logs, o.timeout, os.Stdout)
	} else {
		err = runReplay(o.addr, o.model, o.replay, o.meta, os.Stdout)
	}
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmload:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated -logs values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// replayOpts bundles the replay knobs: how the workload is generated
// and capped, then the wire-level ones.
type replayOpts struct {
	Seed         int64
	Shards       int
	MaxTransfers int
	Compression  float64
	Conns        int
	MinWatch     time.Duration
	IdleConn     time.Duration
	// MaxFailures is how many lost transfers a replay may shed and
	// still succeed — the lost events land in the meta for exact
	// validation.
	MaxFailures int
}

// eventRef identifies one workload event — the granularity lost
// transfers are recorded and excluded at.
type eventRef struct {
	Session int `json:"session"`
	Seq     int `json:"seq"`
}

// metaFile anchors a finished replay for later validation. Model,
// Seed and MaxTransfers are the offered workload: -check regenerates
// it from them, which is only possible because generation is
// deterministic in the seed. No shard count is kept: the offered
// stream is the same at any.
type metaFile struct {
	Model         json.RawMessage `json:"model"`
	Seed          int64           `json:"seed"`
	MaxTransfers  int             `json:"max_transfers"`
	BeginUnixNano int64           `json:"begin_unix_nano"`
	Origin        int64           `json:"origin_trace_sec"`
	Compression   float64         `json:"compression"`
	Attempted     int             `json:"attempted"`
	Completed     int             `json:"completed"`
	Failed        []eventRef      `json:"failed,omitempty"`
}

// openStream starts the generator on the model at seed — lsmgen's
// stream, so the replay offers the requests lsmgen logs.
func openStream(m gismo.Model, seed int64, shards int) (workload.Stream, error) {
	if shards == 0 {
		shards = gismo.DefaultShards()
	}
	return gismo.NewStreamSeeded(m, seed, shards)
}

// offeredEvents materializes the replayed event prefix for validation.
func offeredEvents(m gismo.Model, seed int64, shards, maxTransfers int) ([]workload.Event, error) {
	s, err := openStream(m, seed, shards)
	if err != nil {
		return nil, err
	}
	defer workload.CloseStream(s)
	var events []workload.Event
	for maxTransfers <= 0 || len(events) < maxTransfers {
		e, ok := s.Next()
		if !ok {
			break
		}
		events = append(events, e)
	}
	return events, nil
}

// readSpec reads a model spec file: its bytes, which -meta embeds
// verbatim, and the model they decode to.
func readSpec(path string) ([]byte, gismo.Model, error) {
	spec, err := os.ReadFile(path)
	if err != nil {
		return nil, gismo.Model{}, err
	}
	m, err := gismo.ParseModel(spec)
	if err != nil {
		return nil, gismo.Model{}, fmt.Errorf("model %s: %w", path, err)
	}
	return spec, m, nil
}

func runReplay(addr, modelPath string, ro replayOpts, metaPath string, out *os.File) error {
	spec, m, err := readSpec(modelPath)
	if err != nil {
		return err
	}
	stream, err := openStream(m, ro.Seed, ro.Shards)
	if err != nil {
		return err
	}
	defer workload.CloseStream(stream)

	cfg := loadgen.DefaultConfig()
	cfg.Compression = ro.Compression
	cfg.MaxConns = ro.Conns
	cfg.MinWatch = ro.MinWatch
	cfg.IdleConn = ro.IdleConn
	cfg.MaxTransfers = ro.MaxTransfers

	fmt.Fprintf(out, "replaying %d-client model (horizon %ds) against server %s at %gx compression\n",
		m.NumClients, m.Horizon, addr, ro.Compression)
	res, err := loadgen.Replay(addr, stream, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res)

	if metaPath != "" {
		mf := metaFile{
			Model:         spec,
			Seed:          ro.Seed,
			MaxTransfers:  ro.MaxTransfers,
			BeginUnixNano: res.Begin.UnixNano(),
			Origin:        res.Origin,
			Compression:   res.Compression,
			Attempted:     res.Attempted,
			Completed:     res.Completed,
		}
		for _, ev := range res.FailedEvents {
			mf.Failed = append(mf.Failed, eventRef{Session: ev.Session, Seq: ev.Seq})
		}
		if err := writeMeta(metaPath, &mf); err != nil {
			return err
		}
		fmt.Fprintf(out, "replay metadata written to %s\n", metaPath)
	}
	if res.Failed > ro.MaxFailures {
		return fmt.Errorf("%d of %d transfers failed (max-failures %d)", res.Failed, res.Attempted, ro.MaxFailures)
	}
	return nil
}

// writeMeta writes the -meta record, indented.
func writeMeta(path string, mf *metaFile) error {
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readMeta decodes a -meta record as strictly as gismo.LoadModel
// decodes a model spec, and the spec it embeds through the same
// decoder: an unknown field at any level (a misspelled "failed" would
// leave the lost events in the offered side and blame the server), a
// spec that does not validate or bytes after the record are refused,
// and so is a compression that cannot map the log back onto the trace
// clock. A record from an lsmload that took the workload as flags
// names that instead of the unknown field.
func readMeta(path string) (metaFile, gismo.Model, error) {
	var mf metaFile
	data, err := os.ReadFile(path)
	if err != nil {
		return mf, gismo.Model{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		var old struct {
			Spec json.RawMessage `json:"spec"`
		}
		if json.Unmarshal(data, &old) == nil && old.Spec != nil {
			return mf, gismo.Model{}, fmt.Errorf("meta %s holds a workload \"spec\" record from an lsmload that predates -model: replay with -model to check", path)
		}
		return mf, gismo.Model{}, fmt.Errorf("parse meta %s: %w", path, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return mf, gismo.Model{}, fmt.Errorf("parse meta %s: trailing data after the record", path)
	}
	if !(mf.Compression > 0) {
		return mf, gismo.Model{}, fmt.Errorf("meta %s: compression %v is not positive", path, mf.Compression)
	}
	m, err := gismo.ParseModel(mf.Model)
	if err != nil {
		return mf, gismo.Model{}, fmt.Errorf("meta %s: model: %w", path, err)
	}
	return mf, m, nil
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

// runCheck validates the log a replay's server wrote against the
// offered workload regenerated from its meta record.
func runCheck(metaPath string, logs []string, timeout int64, out *os.File) error {
	mf, m, err := readMeta(metaPath)
	if err != nil {
		return err
	}
	paths, err := servedLogs(logs)
	if err != nil {
		return err
	}

	events, err := offeredEvents(m, mf.Seed, 0, mf.MaxTransfers)
	if err != nil {
		return err
	}
	if len(events) != mf.Attempted {
		return fmt.Errorf("regenerated %d events but the replay attempted %d — meta/spec drift", len(events), mf.Attempted)
	}
	// A replay records the transfers it lost; the served log cannot
	// contain them, so the offered side excludes exactly those.
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

	// A transfer that fails between the server committing its log entry
	// and the client reading END makes the raw log disagree with the
	// replay's accounting (a recorded-lost event that was actually
	// logged, or a redial double-serving one event). The scan
	// reconciles by event identity and says so — the exactness claim
	// below is over the reconciled set; the realization digest is over
	// every logged entry.
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
