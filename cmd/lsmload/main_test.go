package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gismo"
	"repro/internal/wmslog"
)

func TestParsePair(t *testing.T) {
	a, b, err := parsePair("0.3:1.5", "churn")
	if err != nil || a != 0.3 || b != 1.5 {
		t.Fatalf("got %v %v %v", a, b, err)
	}
	for _, bad := range []string{"", "0.3", "x:1", "1:y"} {
		if _, _, err := parsePair(bad, "churn"); err == nil {
			t.Errorf("parsePair(%q) accepted", bad)
		}
	}
}

func TestParseFlash(t *testing.T) {
	fc, err := parseFlash("300:600:100")
	if err != nil {
		t.Fatal(err)
	}
	if fc.At != 300 || fc.Duration != 600 || fc.Sessions != 100 {
		t.Fatalf("parsed %+v", fc)
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "a:2:3"} {
		if _, err := parseFlash(bad); err == nil {
			t.Errorf("parseFlash(%q) accepted", bad)
		}
	}
}

// TestSpecSeedMatchesGenerateSeeded: one -seed means one workload in
// every command — the untransformed stream lsmload offers is exactly
// the request sequence GenerateSeeded (and so lsmgen) produces for the
// same model and seed.
func TestSpecSeedMatchesGenerateSeeded(t *testing.T) {
	sp := spec{Scale: 6000, Days: 1, Hours: 1, Seed: 5, Shards: 2, Rate: 0.05, NoRamp: true}
	offered, m, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, sp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(offered) == 0 || !slices.Equal(offered, w.Requests) {
		t.Fatalf("lsmload offers %d events, GenerateSeeded %d requests, or they differ", len(offered), len(w.Requests))
	}
}

// TestSpecOfferedEventsDeterministicAndCapped: the -check contract
// rests on the spec regenerating the identical event prefix.
func TestSpecOfferedEventsDeterministicAndCapped(t *testing.T) {
	sp := spec{
		Scale: 6000, Days: 1, Hours: 1, Seed: 5, Shards: 2,
		Rate: 0.05, NoRamp: true, ScenarioSeed: 3,
		Thin: 0.9, Flash: []string{"100:400:20"},
	}
	a, m, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	if m.Horizon != 3600 {
		t.Fatalf("hours override ignored: horizon %d", m.Horizon)
	}
	b, _, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("regeneration drift: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	// Shard count must not change the offered sequence.
	sp2 := sp
	sp2.Shards = 5
	c, _, err := sp2.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(c) {
		t.Fatalf("shard count changed the workload: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("shard count changed event %d", i)
		}
	}

	capped := sp
	capped.MaxTransfers = 7
	d, _, err := capped.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 7 {
		t.Fatalf("cap ignored: %d events", len(d))
	}
	for i := range d {
		if d[i] != a[i] {
			t.Fatalf("capped prefix diverges at %d", i)
		}
	}
}

// TestSpecSurvivesMetaRoundTrip: what -meta writes, -check must read
// back into the same spec.
func TestSpecSurvivesMetaRoundTrip(t *testing.T) {
	mf := metaFile{
		Spec: spec{
			Scale: 692, Days: 1, Hours: 2, Seed: 11, Shards: 4,
			Rate: 0.05, NoRamp: true, MaxTransfers: 100, ScenarioSeed: 9,
			Thin: 0.8, Churn: "0.3:1.5", SpeedUp: 2, Warp: "0.5:86400",
			Flash: []string{"600:900:2000", "1800:300:50"},
		},
		BeginUnixNano: 123456789,
		Origin:        42,
		Compression:   600,
		Attempted:     99,
		Completed:     99,
	}
	data, err := json.Marshal(&mf)
	if err != nil {
		t.Fatal(err)
	}
	var back metaFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec.Scale != mf.Spec.Scale || back.Spec.Seed != mf.Spec.Seed ||
		back.Spec.Thin != mf.Spec.Thin || back.Spec.Churn != mf.Spec.Churn ||
		len(back.Spec.Flash) != 2 || back.Origin != 42 || back.Compression != 600 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestSpecTransformValidation: bad scenario specs surface as errors,
// not silent no-ops.
func TestSpecTransformValidation(t *testing.T) {
	bad := []spec{
		{Scale: 6000, Days: 1, Thin: 1.5},
		{Scale: 6000, Days: 1, Churn: "nonsense"},
		{Scale: 6000, Days: 1, Warp: "2:-1"},
		{Scale: 6000, Days: 1, Flash: []string{"1:2"}},
	}
	for i, sp := range bad {
		m, err := sp.model()
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		if _, err := sp.transform(m); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestCheckRefusesDirWithoutDailyLogs: -check -logs DIR over a
// directory holding no wms-*.log(.gz) — here only lsmserve's
// transfers.log — is refused with an error naming the directory, and
// nothing is regenerated or compared (no output), instead of reading
// an empty served workload and reporting a mismatch.
func TestCheckRefusesDirWithoutDailyLogs(t *testing.T) {
	dir := t.TempDir()
	sp := spec{Scale: 6000, Days: 1, Hours: 1, Seed: 5, Shards: 2, Rate: 0.05, NoRamp: true}
	events, _, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(&metaFile{Spec: sp, Compression: 600, Attempted: len(events), Completed: len(events)})
	if err != nil {
		t.Fatal(err)
	}
	meta, logs := filepath.Join(dir, "meta.json"), filepath.Join(dir, "logs")
	if err := os.WriteFile(meta, data, 0o644); err != nil {
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
	sp := spec{Scale: 6000, Days: 1, Hours: 1, Seed: 5, Shards: 2, Rate: 0.05, NoRamp: true}
	events, _, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Date(2002, 3, 1, 12, 0, 0, 0, time.UTC)
	mf := metaFile{Spec: sp, BeginUnixNano: begin.UnixNano(), Compression: 1, Attempted: len(events), Completed: len(events)}
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
	return mf, writeMeta(t, dir, mf), logs
}

func writeMeta(t *testing.T, dir string, mf metaFile) string {
	t.Helper()
	data, err := json.Marshal(&mf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "meta.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCheckOutput runs the check and returns its error and stdout.
func runCheckOutput(t *testing.T, meta string, logs ...string) (string, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	err = runCheck(meta, logs, 1500, out)
	printed, _ := os.ReadFile(out.Name())
	return string(printed), err
}

// TestCheckReadsNodeLogs: the check over a replay's node logs MATCHes
// and prints the realization digest, the same in either name order,
// and the same over the directory holding them as daily logs.
func TestCheckReadsNodeLogs(t *testing.T) {
	_, meta, logs := checkFixture(t)
	want, err := runCheckOutput(t, meta, logs...)
	if err != nil {
		t.Fatalf("%v\n%s", err, want)
	}
	if !strings.Contains(want, "MATCH at timeout 1500 s") || !strings.Contains(want, "realization md5=") {
		t.Fatalf("check output:\n%s", want)
	}
	if got, err := runCheckOutput(t, meta, logs[1], logs[0]); err != nil || got != want {
		t.Fatalf("logs named the other way round: %v\n%s\nwant\n%s", err, got, want)
	}
	dir := t.TempDir()
	for i, path := range logs {
		if err := os.Rename(path, filepath.Join(dir, fmt.Sprintf("wms-2002-03-0%d.log", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := runCheckOutput(t, meta, dir); err != nil || got != want {
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
		printed, err := runCheckOutput(t, meta, args...)
		if err == nil || !strings.Contains(err.Error(), "named twice") {
			t.Errorf("-logs %v: %v", args, err)
		}
		if printed != "" {
			t.Errorf("-logs %v: printed %q before refusing", args, printed)
		}
	}
}

// TestCheckMetaIsStrict: -check decodes the meta record strictly. An
// unknown field at any level (a misspelled "failed" would leave the
// lost event in the offered side and report the server as at fault),
// bytes after the record and a compression that is not positive are
// refused before anything is regenerated or printed.
func TestCheckMetaIsStrict(t *testing.T) {
	mf, meta, logs := checkFixture(t)
	if printed, err := runCheckOutput(t, meta, logs...); err != nil {
		t.Fatalf("the fixture does not pass: %v\n%s", err, printed)
	}
	data, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	record := string(data)
	zero, negative := mf, mf
	zero.Compression, negative.Compression = 0, -600
	dir := t.TempDir()
	for name, bad := range map[string]string{
		"unknown top-level field": strings.Replace(record, `{"spec"`, `{"operator":"x","spec"`, 1),
		"unknown spec field":      strings.Replace(record, `"scale"`, `"sclae":1,"scale"`, 1),
		"misspelled failed":       strings.Replace(record, `"spec"`, `"failled":[{"session":0,"seq":0}],"spec"`, 1),
		"unknown failed field":    strings.Replace(record, `"spec"`, `"failed":[{"session":0,"seq":0,"node":2}],"spec"`, 1),
		"trailing record":         record + `{}`,
		"zero compression":        string(must(json.Marshal(&zero))),
		"negative compression":    string(must(json.Marshal(&negative))),
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		printed, err := runCheckOutput(t, path, logs...)
		if err == nil || printed != "" {
			t.Errorf("%s: err %v, printed %q", name, err, printed)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
