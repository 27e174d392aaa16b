package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gismo"
	"repro/internal/liveserver"
	"repro/internal/wmslog"
)

// specFixture saves the model of a one-hour replay of 1/6000 of the
// paper's population — no premiere ramp, 0.05 sessions a second — as
// a spec file and returns its path.
func specFixture(t *testing.T) string {
	t.Helper()
	m, err := gismo.Scaled(6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Horizon, m.BaseArrivalRate, m.RampUpDays = 3600, 0.05, 0
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecSeedMatchesGenerateSeeded: one spec and one -seed mean one
// workload in every command — what lsmload -model X -seed N offers,
// and what -check regenerates from the meta record, is exactly the
// request sequence GenerateSeeded(LoadModel(X), N) (and so lsmgen
// -model X -seed N) produces.
func TestSpecSeedMatchesGenerateSeeded(t *testing.T) {
	const seed = 5
	path := specFixture(t)
	m, err := gismo.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec, replayed, err := readSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	offered, err := offeredEvents(replayed, seed, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(offered) == 0 || !slices.Equal(offered, w.Requests) {
		t.Fatalf("lsmload offers %d events, GenerateSeeded %d requests, or they differ", len(offered), len(w.Requests))
	}

	meta := filepath.Join(t.TempDir(), "meta.json")
	if err := writeMeta(meta, &metaFile{Model: spec, Seed: seed, Compression: 600}); err != nil {
		t.Fatal(err)
	}
	mf, checked, err := readMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	regenerated, err := offeredEvents(checked, mf.Seed, 0, mf.MaxTransfers)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(regenerated, w.Requests) {
		t.Fatalf("-check regenerates %d events, GenerateSeeded %d requests, or they differ", len(regenerated), len(w.Requests))
	}
}

// TestSpecOfferedEventsDeterministicAndCapped: the -check contract
// rests on the spec and seed regenerating the identical event prefix,
// at any shard count, cut where the transfer cap says.
func TestSpecOfferedEventsDeterministicAndCapped(t *testing.T) {
	m, err := gismo.LoadModel(specFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := offeredEvents(m, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	b, err := offeredEvents(m, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("regeneration drift: %d vs %d events, or they differ", len(a), len(b))
	}
	c, err := offeredEvents(m, 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, c) {
		t.Fatalf("shard count changed the workload: %d vs %d events, or they differ", len(a), len(c))
	}
	d, err := offeredEvents(m, 5, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d, a[:7]) {
		t.Fatalf("cap ignored or the capped prefix diverges: %d events", len(d))
	}
}

// TestSpecSurvivesMetaRoundTrip: what -meta writes, -check must read
// back — the embedded spec decoding to the replayed model.
func TestSpecSurvivesMetaRoundTrip(t *testing.T) {
	spec, m, err := readSpec(specFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	mf := metaFile{
		Model: spec, Seed: 11, MaxTransfers: 100,
		BeginUnixNano: 123456789, Origin: 42, Compression: 600,
		Attempted: 99, Completed: 98, Failed: []eventRef{{Session: 3, Seq: 1}},
	}
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := writeMeta(path, &mf); err != nil {
		t.Fatal(err)
	}
	back, checked, err := readMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(must(json.Marshal(checked)), must(json.Marshal(m))) {
		t.Errorf("embedded spec decodes to another model:\n%s\nwant\n%s", must(json.Marshal(checked)), must(json.Marshal(m)))
	}
	back.Model = mf.Model
	if !reflect.DeepEqual(back, mf) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestRemovedFlagsRejected: the workload is a model spec; the flags
// that built and reshaped one are gone, not silently accepted, and
// -model is the one flag in their place. -frontend went with the fleet:
// the replay target is always one lsmserve.
func TestRemovedFlagsRejected(t *testing.T) {
	parse := func(args ...string) error {
		var o options
		fs := flag.NewFlagSet("lsmload", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &o)
		return fs.Parse(args)
	}
	for _, args := range [][]string{
		{"-scale", "3000"}, {"-days", "1"}, {"-hours", "1"}, {"-rate", "0.03"}, {"-no-ramp"},
		{"-scenario-seed", "1"}, {"-thin", "0.9"}, {"-churn", "0.3:1.5"}, {"-speedup", "2"},
		{"-warp", "0.8:86400"}, {"-flash", "300:600:100"}, {"-frontend"},
	} {
		if err := parse(args...); err == nil {
			t.Errorf("%v: want a flag-parsing error", args)
		}
	}
	if err := parse("-model", "spec.json", "-seed", "7"); err != nil {
		t.Fatal(err)
	}
	var names []string
	fs := flag.NewFlagSet("lsmload", flag.ContinueOnError)
	registerFlags(fs, new(options))
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "check", "compression", "conns", "idle-conn", "logs", "max-failures",
		"max-transfers", "meta", "min-watch", "model", "seed", "shards", "timeout"}
	if !slices.Equal(names, want) {
		t.Errorf("flags %v, want %v", names, want)
	}
}

// TestE2ESpecCanonicalWithBurst: the spec the e2e scripts replay is in
// Save's canonical form, and at their seed its events draw a crowd —
// the busiest 15-minute window opens at least twice the sessions of
// the quietest.
func TestE2ESpecCanonicalWithBurst(t *testing.T) {
	const path = "../../scripts/e2e_model.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gismo.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	resaved := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(must(os.ReadFile(resaved)), data) {
		t.Errorf("%s is not what LoadModel then Save writes", path)
	}

	events, err := offeredEvents(m, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	windows := make([]int, (m.Horizon+899)/900)
	for _, ev := range events {
		if ev.Seq == 0 {
			windows[ev.Start/900]++
		}
	}
	if lo, hi := slices.Min(windows), slices.Max(windows); hi < 2*lo {
		t.Errorf("sessions per 15-minute window %v: no burst", windows)
	}
}

// TestCheckRefusesDirWithoutDailyLogs: -check -logs DIR over a
// directory holding no wms-*.log(.gz) — here only lsmserve's
// transfers.log — is refused with an error naming the directory, and
// nothing is regenerated or compared (no output), instead of reading
// an empty served workload and reporting a mismatch.
func TestCheckRefusesDirWithoutDailyLogs(t *testing.T) {
	dir := t.TempDir()
	spec, m, err := readSpec(specFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	events, err := offeredEvents(m, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, logs := filepath.Join(dir, "meta.json"), filepath.Join(dir, "logs")
	if err := writeMeta(meta, &metaFile{Model: spec, Seed: 5, Compression: 600, Attempted: len(events), Completed: len(events)}); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(logs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(logs, "transfers.log"), []byte("#Fields: date time\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	err = runCheck(meta, []string{logs}, 0, out)
	if err == nil || !strings.Contains(err.Error(), "no wms-*.log or wms-*.log.gz files under "+logs) {
		t.Fatalf("runCheck over a directory without daily logs: %v", err)
	}
	if printed, _ := os.ReadFile(out.Name()); len(printed) != 0 {
		t.Errorf("runCheck printed %q before refusing the directory", printed)
	}
}

// checkFixture writes the meta record of a replay of a one-hour
// workload at compression 1 and the log its server would have written,
// split over two files, and returns the record, the meta path and the
// two logs.
func checkFixture(t *testing.T) (metaFile, string, []string) {
	t.Helper()
	dir := t.TempDir()
	spec, m, err := readSpec(specFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	events, err := offeredEvents(m, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Date(2002, 3, 1, 12, 0, 0, 0, time.UTC)
	mf := metaFile{Model: spec, Seed: 5, BeginUnixNano: begin.UnixNano(), Compression: 1, Attempted: len(events), Completed: len(events)}
	var logs []string
	for node := range 2 {
		path := filepath.Join(dir, fmt.Sprintf("node%d.log", node+1))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := wmslog.NewWriter(f)
		for i, ev := range events {
			if i%2 != node {
				continue
			}
			if err := w.Write(&wmslog.Entry{
				Timestamp: begin.Add(time.Duration(ev.End()) * time.Second), ClientIP: "10.0.0.1",
				PlayerID: fmt.Sprintf("p%d", ev.Client), URIStem: "/live/feed1", Duration: ev.Duration,
				Referer: wmslog.SessionRef(int64(ev.Session), ev.Seq), Status: 200,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		logs = append(logs, path)
	}
	meta := filepath.Join(dir, "meta.json")
	if err := writeMeta(meta, &mf); err != nil {
		t.Fatal(err)
	}
	return mf, meta, logs
}

// runCheckOutput runs the check at timeout (0 = auto-pick) and returns
// its error and stdout.
func runCheckOutput(t *testing.T, meta string, timeout int64, logs ...string) (string, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	err = runCheck(meta, logs, timeout, out)
	printed, _ := os.ReadFile(out.Name())
	return string(printed), err
}

// TestCheckReadsNodeLogs: the check over a replay's log split over two
// files MATCHes and prints the realization digest, the same in either
// name order and over the directory holding them as daily logs.
func TestCheckReadsNodeLogs(t *testing.T) {
	_, meta, logs := checkFixture(t)
	want, err := runCheckOutput(t, meta, 1500, logs...)
	if err != nil {
		t.Fatalf("%v\n%s", err, want)
	}
	if !strings.Contains(want, "MATCH at timeout 1500 s") || !strings.Contains(want, "realization md5=") {
		t.Fatalf("check output:\n%s", want)
	}
	if got, err := runCheckOutput(t, meta, 1500, logs[1], logs[0]); err != nil || got != want {
		t.Fatalf("logs named the other way round: %v\n%s\nwant\n%s", err, got, want)
	}
	dir := t.TempDir()
	for i, path := range logs {
		if err := os.Rename(path, filepath.Join(dir, fmt.Sprintf("wms-2002-03-0%d.log", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := runCheckOutput(t, meta, 1500, dir); err != nil || got != want {
		t.Fatalf("logs as a directory: %v\n%s\nwant\n%s", err, got, want)
	}
}

// TestCheckRefusesLogNamedTwice: a log named twice — the same path, a
// symlink to it, a hard link to it, or a file a directory argument
// holds — is refused before anything is regenerated: read twice, every
// entry would reconcile away as a duplicate serve.
func TestCheckRefusesLogNamedTwice(t *testing.T) {
	_, meta, logs := checkFixture(t)
	dir := t.TempDir()
	symlink, hardlink := filepath.Join(dir, "sym.log"), filepath.Join(dir, "hard.log")
	if err := os.Symlink(logs[0], symlink); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(logs[0], hardlink); err != nil {
		t.Fatal(err)
	}
	daily := t.TempDir()
	if err := os.Link(logs[1], filepath.Join(daily, "wms-2002-03-01.log")); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{logs[0], logs[1], logs[0]},
		{logs[0], symlink},
		{hardlink, logs[1], logs[0]},
		{logs[1], daily},
	} {
		printed, err := runCheckOutput(t, meta, 1500, args...)
		if err == nil || !strings.Contains(err.Error(), "named twice") {
			t.Errorf("-logs %v: %v", args, err)
		}
		if printed != "" {
			t.Errorf("-logs %v: printed %q before refusing", args, printed)
		}
	}
}

// TestCheckMetaIsStrict: -check decodes the meta record strictly, and
// the model spec it embeds through gismo.LoadModel's decoder. An
// unknown field at any level (a misspelled "failed" would leave the
// lost event in the offered side and report the server as at fault),
// an embedded spec that does not validate, bytes after the record, a
// compression that is not positive and the workload record of an
// lsmload that took the workload as flags are refused before anything
// is regenerated or printed.
func TestCheckMetaIsStrict(t *testing.T) {
	mf, meta, logs := checkFixture(t)
	if printed, err := runCheckOutput(t, meta, 1500, logs...); err != nil {
		t.Fatalf("the fixture does not pass: %v\n%s", err, printed)
	}
	data, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	record := string(data)
	zero, negative, invalid := mf, mf, mf
	zero.Compression, negative.Compression = 0, -600
	m, err := gismo.ParseModel(mf.Model)
	if err != nil {
		t.Fatal(err)
	}
	m.NumClients = 0
	invalid.Model = must(json.Marshal(m))
	old := fmt.Sprintf(`{"spec":{"scale":6000,"days":1,"hours":1,"seed":5,"shards":2,"rate":0.05,"no_ramp":true,`+
		`"max_transfers":0,"scenario_seed":1,"flash":["300:600:100"]},"begin_unix_nano":%d,"origin_trace_sec":0,`+
		`"compression":1,"attempted":%d,"completed":%d}`, mf.BeginUnixNano, mf.Attempted, mf.Completed)
	dir := t.TempDir()
	for name, bad := range map[string]string{
		"unknown top-level field": strings.Replace(record, `"model"`, `"operator":"x","model"`, 1),
		"unknown model field":     strings.Replace(record, `"horizon_seconds"`, `"horizn_seconds":1,"horizon_seconds"`, 1),
		"invalid model":           string(must(json.Marshal(&invalid))),
		"misspelled failed":       strings.Replace(record, `"model"`, `"failled":[{"session":0,"seq":0}],"model"`, 1),
		"unknown failed field":    strings.Replace(record, `"model"`, `"failed":[{"session":0,"seq":0,"node":2}],"model"`, 1),
		"trailing record":         record + `{}`,
		"zero compression":        string(must(json.Marshal(&zero))),
		"negative compression":    string(must(json.Marshal(&negative))),
		"old spec record":         old,
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		printed, err := runCheckOutput(t, path, 1500, logs...)
		if err == nil || printed != "" {
			t.Errorf("%s: err %v, printed %q", name, err, printed)
		}
		if name == "old spec record" && (err == nil || !strings.Contains(err.Error(), "predates -model")) {
			t.Errorf("%s: %v, want an error naming the old record", name, err)
		}
	}
}

// lossyServer serves with room for only maxConns connections, logging
// every transfer it completes to a text log, and returns its address
// and a stop function that closes it and returns the log's path.
func lossyServer(t *testing.T, maxConns int) (string, func() string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "transfers.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := wmslog.NewSyncWriter(wmslog.NewWriter(f))
	cfg := liveserver.DefaultServerConfig()
	cfg.FrameBytes = 256
	cfg.FrameInterval = 5 * time.Millisecond
	cfg.MaxConns = maxConns
	cfg.Sink = func(r liveserver.TransferRecord) {
		if err := w.Write(liveserver.RecordEntry(r)); err != nil {
			t.Error(err)
		}
	}
	srv, err := liveserver.Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	stop := func() string {
		once.Do(func() {
			srv.Close()
			if err := w.Flush(); err != nil {
				t.Error(err)
			}
			f.Close()
		})
		return path
	}
	t.Cleanup(func() { stop() })
	return srv.Addr(), stop
}

// TestReplayRecordsLostTransfersForCheck: a server with room for eight
// connections refuses the rest of the replay's clients ("ERR busy").
// Under -max-failures the replay still succeeds and -meta records the
// lost events; -check excludes exactly those and MATCHes the served
// log. The same replay with -max-failures 0 fails. Transfers must be
// both lost and served, or the test proves nothing.
func TestReplayRecordsLostTransfersForCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("socket replay in -short mode")
	}
	model := specFixture(t)
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	ro := replayOpts{Seed: 5, Shards: 2, MaxTransfers: 80, Compression: 1200, Conns: 64,
		MinWatch: 20 * time.Millisecond, IdleConn: 2 * time.Second, MaxFailures: 80}

	addr, stop := lossyServer(t, 8)
	meta := filepath.Join(dir, "meta.json")
	if err := runReplay(addr, model, ro, meta, stdout); err != nil {
		t.Fatalf("replay under -max-failures %d: %v", ro.MaxFailures, err)
	}
	log := stop()
	// The report's connection counts are of connections that opened:
	// a refused dial is in neither, so the peak is at most the lifetime
	// count and at most the server's room.
	report, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(\d+) conns \(peak (\d+) concurrent\)`).FindSubmatch(report)
	if m == nil {
		t.Fatalf("no connection counts in the report:\n%s", report)
	}
	conns, peak := must(strconv.Atoi(string(m[1]))), must(strconv.Atoi(string(m[2])))
	if peak > conns || peak > 8 {
		t.Errorf("report reads %s: the peak exceeds the connections opened or the server's 8", m[0])
	}
	mf, _, err := readMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Failed) == 0 || mf.Completed == 0 || mf.Completed+len(mf.Failed) != mf.Attempted {
		t.Fatalf("meta records %d lost and %d completed of %d attempted: want some of each, adding up",
			len(mf.Failed), mf.Completed, mf.Attempted)
	}
	// The auto-picked timeout clears the log's wall-second quantization,
	// ±compression trace seconds.
	out, err := runCheckOutput(t, meta, 0, log)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if want := fmt.Sprintf("excluding %d transfers lost during the replay", len(mf.Failed)); !strings.Contains(out, want) || !strings.Contains(out, "\nMATCH at timeout") {
		t.Fatalf("check output lacks %q or a MATCH:\n%s", want, out)
	}

	addr, _ = lossyServer(t, 8)
	ro.MaxFailures = 0
	if err := runReplay(addr, model, ro, "", stdout); err == nil || !strings.Contains(err.Error(), "max-failures 0") {
		t.Fatalf("replay under -max-failures 0: %v, want the lost transfers refused", err)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
