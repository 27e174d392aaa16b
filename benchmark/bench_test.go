package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/benchmark/layers"
)

// fullSpec is BENCHMARK.json with every key the contract allows, so a
// strict decode rejects any other.
type fullSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readFullSpec(t *testing.T) fullSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec fullSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestBenchmarkSpecLint holds BENCHMARK.json to the limits of the
// benchmark contract and to what the harness actually runs.
func TestBenchmarkSpecLint(t *testing.T) {
	spec := readFullSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q: want [A-Za-z0-9_.-]+, at most 64 characters", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	checkDirection := func(name, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q: better %q, want lower or higher", name, better)
		}
	}

	if got := strings.Join(spec.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command %q, want go run ./benchmark", got)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, but the harness defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	// 4 + 22 runs per workload, each set-up plus run_seconds, must fit
	// the driver's 3420 s with room for two builds.
	if runs := 4 + 22*len(spec.Workloads); runs*(spec.RunSeconds+12) > 3300 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's time cap", runs, spec.RunSeconds)
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var names []string
	for _, w := range spec.Workloads {
		checkName("workload", w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of 1..200 characters, got %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, but the harness runs %v", names, workloadNames)
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		checkName("end-to-end metric", m.Name)
		checkDirection(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range spec.PerLayer {
		checkName("per-layer metric", m.Name)
		checkDirection(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q", m.Name, m.Unit)
		}
		if layer, _, ok := strings.Cut(m.Name, "."); !ok {
			t.Errorf("per-layer metric %q: want layer.metric", m.Name)
		} else if _, err := os.Stat(filepath.Join("layers", layer+".go")); err != nil && layer != "tracing" {
			t.Errorf("per-layer metric %q: no probe file layers/%s.go", m.Name, layer)
		}
	}
}

// TestSmoke runs every workload and one traced pass at smoke sizes and
// asserts that each run is correct and emits exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and opens sockets")
	}
	spec := readFullSpec(t)
	h := &harness{root: "..", out: t.TempDir(), sizes: layers.Smoke, seed: defaultSeed, seconds: 1, log: io.Discard, tables: io.Discard}
	if err := h.build(); err != nil {
		t.Fatal(err)
	}
	check := func(res *runResult, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace %d: correct %v, %d of %d operations failed: %v", res.Workload, res.Trace, res.Correct, res.Failed, res.Attempted, res.Notes)
		}
		for name, unit := range want {
			got, ok := res.Metrics[name]
			if !ok {
				t.Errorf("%s trace %d: metric %s not emitted", res.Workload, res.Trace, name)
			} else if got.Unit != unit {
				t.Errorf("%s trace %d: metric %s has unit %q, BENCHMARK.json says %q", res.Workload, res.Trace, name, got.Unit, unit)
			}
		}
		for name := range res.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s trace %d: metric %s is not in BENCHMARK.json", res.Workload, res.Trace, name)
			}
		}
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	for _, name := range workloadNames {
		res, err := h.run(name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(res, endToEnd)
		for metric, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, metric, m.Value)
			}
		}
	}
	for _, name := range []string{"char_logs", "live_loop"} {
		res, err := h.run(name, 1)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		check(res, perLayer)
		var spans []layers.Span
		if err := readJSON(filepath.Join(h.out, "trace-"+name+".json"), &spans); err != nil {
			t.Fatal(err)
		}
		if len(spans) < 4 {
			t.Errorf("trace-%s.json holds %d spans", name, len(spans))
		}
	}
	if _, err := h.run("no_such_workload", 0); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// TestCompareVerdicts drives -compare over synthetic results: an
// unchanged metric, one worse by more than its bound, and one whose own
// spread is wider than the bound.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, cpu []float64) string {
		r := &runResult{summary: summary{Correct: true, Metrics: layers.Metrics{}}, Workload: "gen_logs", Samples: map[string][]float64{}}
		report(r, "wall_us_per_transfer", "us", wall)
		report(r, "cpu_us_per_transfer", "us", cpu)
		r.Metrics.Set("peak_rss_mb", 100, "MB")
		r.Metrics.Set("setup_s", 5, "s")
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultsFile{Runs: []*runResult{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{1.00, 1.01, 1.02}, []float64{2.0, 2.0, 2.0})
	b := write("b.json", []float64{1.20, 1.21, 1.22}, []float64{1.5, 2.0, 2.6})

	var spec benchmarkSpec
	specJSON := `{"workloads": [{"name": "gen_logs"}, {"name": "char_logs"}], "end_to_end": [
		{"name": "wall_us_per_transfer", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "cpu_us_per_transfer", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}`
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, &spec, a, a); err != nil {
		t.Errorf("A against itself: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareFiles(&out, &spec, a, b)
	if err == nil {
		t.Error("a 20% slower wall was not reported as a regression")
	}
	for _, want := range []string{
		`gen_logs\s+wall_us_per_transfer .* \+19\.8%\s+10%\s+regressed`,
		`gen_logs\s+cpu_us_per_transfer .* \+0\.0%\s+10%\s+unresolved`,
		`gen_logs\s+peak_rss_mb .* \+0\.0%\s+10%\s+ok`,
		`char_logs\s+missing`,
	} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
