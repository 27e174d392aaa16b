// Command benchjson converts `go test -bench` output on stdin into a
// JSON benchmark record on stdout. `make bench` uses it to emit
// BENCH_streaming.json, the perf trajectory of the streaming pipeline:
//
//	go test -run '^$' -bench 'BenchmarkStreaming' -benchmem . | benchjson
//
// Each parsed line becomes {name, gomaxprocs, runs, ns_per_op,
// bytes_per_op, allocs_per_op, metrics{...}}; non-benchmark lines are
// ignored. A `-cpu 1,2,4,8` matrix keeps its variants distinct: the
// -N name suffix is parsed into the gomaxprocs field rather than
// discarded, and the report records the machine's core count
// (num_cpu) so a reader can judge what the multi-core rows mean. For
// parallel benchmarks named by -speedup (comma-separated
// prefix=sequentialBase pairs; by default the sharded generation and
// end-to-end families against their sequential forms), each variant
// also gets metrics.speedup_vs_sequential — the pair's sequential
// baseline's ns/op at the same GOMAXPROCS divided by its own. A
// benchmark paired with itself (name=name) is one whose parallelism
// comes from GOMAXPROCS alone: its -cpu 1 row is the sequential
// baseline of its other rows. A row that ran with more procs than the machine has cores is never annotated:
// time-slicing is not scaling.
//
// With -compare the tool becomes the CI perf gate: fresh bench output
// on stdin is compared against a committed baseline JSON, and any
// benchmark variant whose ns/op, bytes/op or allocs/op regressed by
// more than -threshold (default 0.25 = 25%), or whose
// speedup_vs_sequential dropped by more than 15%, fails the run, with
// a failure line naming the metric:
//
//	go test -run '^$' -bench 'BenchmarkStreaming' -benchmem . \
//	    | benchjson -compare BENCH_streaming.json
//
// Multi-core results are only meaningful on multi-core hardware: when
// the machine has fewer than -min-cores cores (default 4), the gate
// skips GOMAXPROCS>1 variants and the speedup metric with a loud
// SKIP line per variant instead of judging parallel scaling a
// single-core box cannot exhibit.
//
// With -history the tool reads nothing from stdin and instead renders
// the perf trajectory of a committed baseline: every git revision of
// the named JSON becomes one column of a markdown trend table
// (oldest → newest, ns/op · allocs/op · speedup per benchmark), which
// CI publishes to the bench-gate step summary.
//
// Benchmarks present on only one side are reported but never fail the
// gate — adding or retiring a benchmark is not a regression. A
// benchmark with one row on each side whose keys differ only in
// GOMAXPROCS (it ran outside the -cpu matrix, on machines with
// different core counts) is the same benchmark: it is matched by name
// and gated, not reported NEW and GONE. A
// zero-valued baseline metric (a genuinely alloc-free benchmark, or a
// legacy baseline recorded without -benchmem) gates on any growth:
// regressing from 0 allocs/op is precisely the zero-alloc property
// the gate exists to defend.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// speedupMetric is the derived metric name for parallel benchmarks:
// sequential-baseline ns/op divided by this variant's ns/op, at the
// same GOMAXPROCS.
const speedupMetric = "speedup_vs_sequential"

// speedupDropThreshold is the allowed fractional drop in
// speedup_vs_sequential before the gate fails: scaling wins are capped
// by core count and scheduler noise, so the gate is looser than a raw
// latency gate but still catches a parallel path quietly degrading to
// sequential speed.
const speedupDropThreshold = 0.15

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Gomaxprocs  int                `json:"gomaxprocs,omitempty"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// speedupSpec is one parsed -speedup pair: benchmarks whose name
// starts with prefix are measured against the benchmark named base.
type speedupSpec struct {
	prefix string
	base   string
}

// defaultSpeedup pairs every parallel benchmark family with its
// sequential baseline: sharded generation vs single-shard generation;
// and the passes whose only parallelism knob is GOMAXPROCS — the
// generate → serve pipeline (generator shards, serve goroutine,
// emitter), the log ingest (a worker per core, inline at 1) alone and
// streamed into the observer, and the characterization (a task per
// layer) — vs their own -cpu 1 rows.
const defaultSpeedup = "BenchmarkStreamingServe=BenchmarkStreamingServe," +
	"BenchmarkStreamingGenerateShards=BenchmarkStreamingGenerateSequential," +
	"BenchmarkPipelineLoadLogs=BenchmarkPipelineLoadLogs," +
	"BenchmarkPipelineObserveLogs=BenchmarkPipelineObserveLogs," +
	"BenchmarkPipelineFullCharacterization=BenchmarkPipelineFullCharacterization"

// compareOpts parameterizes the gate.
type compareOpts struct {
	threshold float64       // allowed fractional regression per gated metric
	speedup   []speedupSpec // which benchmarks carry the speedup metric
	numCPU    int           // cores on this machine
	minCores  int           // below this, multi-core variants are skipped
}

func main() {
	var (
		baseline  = flag.String("compare", "", "baseline JSON to compare against; regressions beyond -threshold fail")
		threshold = flag.Float64("threshold", 0.25, "allowed fractional ns/op regression in -compare mode")
		speedup   = flag.String("speedup", defaultSpeedup,
			"comma-separated prefix=base pairs: annotate benchmarks matching prefix with speedup_vs_sequential against base (empty disables)")
		minCores    = flag.Int("min-cores", 4, "skip gating GOMAXPROCS>1 variants and speedup on machines with fewer cores")
		historyFile = flag.String("history", "", "render a markdown perf-trend table from the git history of this baseline JSON and exit")
	)
	flag.Parse()

	if *historyFile != "" {
		if err := history(*historyFile, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	specs, err := parseSpeedupSpecs(*speedup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	report.NumCPU = runtime.NumCPU()
	annotateSpeedup(report, specs)

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		opts := compareOpts{threshold: *threshold, speedup: specs, numCPU: runtime.NumCPU(), minCores: *minCores}
		if opts.numCPU < opts.minCores {
			fmt.Fprintf(os.Stderr, "benchjson: WARNING: %d core(s) < -min-cores %d; multi-core variants and %s are not gated on this machine\n",
				opts.numCPU, opts.minCores, speedupMetric)
		}
		regressions, compared := compare(base, report, opts, os.Stdout)
		if compared == 0 {
			// A gate that measured nothing must not pass: an empty
			// intersection means the bench run or the baseline broke.
			fmt.Fprintln(os.Stderr, "benchjson: no benchmark present in both baseline and fresh results")
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d metric regression(s) beyond %.0f%%\n",
				regressions, *threshold*100)
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadBaseline reads a committed baseline. A baseline is one row per
// (name, gomaxprocs): a duplicate means two bench passes recorded the
// same variant, and the gate would silently compare against the better
// of the two, so it is refused.
func loadBaseline(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	seen := make(map[string]bool, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		key := variantKey(b.Name, b.Gomaxprocs)
		if seen[key] {
			return nil, fmt.Errorf("baseline %s has more than one row for %s; re-record it with `make bench`", path, key)
		}
		seen[key] = true
	}
	return &base, nil
}

func parseSpeedupSpecs(s string) ([]speedupSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []speedupSpec
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		prefix, base, ok := strings.Cut(pair, "=")
		if !ok || prefix == "" || base == "" {
			return nil, fmt.Errorf("bad -speedup pair %q: want prefix=baseBenchmark", pair)
		}
		specs = append(specs, speedupSpec{prefix: prefix, base: base})
	}
	return specs, nil
}

// variantKey distinguishes -cpu matrix rows: GOMAXPROCS>1 variants get
// the conventional -N suffix back, while single-proc rows keep the
// bare name so legacy baselines (recorded before gomaxprocs existed)
// still match.
func variantKey(name string, gomaxprocs int) string {
	if gomaxprocs > 1 {
		return name + "-" + strconv.Itoa(gomaxprocs)
	}
	return name
}

// annotateSpeedup attaches metrics.speedup_vs_sequential to every
// benchmark matching a spec prefix: the pair's base benchmark's best
// ns/op at the same GOMAXPROCS over this result's ns/op. Variants with
// no same-GOMAXPROCS baseline are left unannotated — comparing across
// different proc counts would flatter or slander the parallel path.
// A self-paired benchmark (prefix == base) is the exception by
// definition: GOMAXPROCS is its only parallelism knob, so its
// GOMAXPROCS>1 rows are measured against its GOMAXPROCS=1 row.
//
// A row that ran with more procs than the machine has cores
// (report.NumCPU, when known) is never annotated: its goroutines were
// time-sliced onto fewer cores, so the ratio measures the scheduler,
// not the parallel path, and a committed "speed-up" there would be
// read — and gated — as scaling the hardware could not exhibit.
func annotateSpeedup(report *Report, specs []speedupSpec) {
	for _, spec := range specs {
		self := spec.prefix == spec.base
		seq := make(map[int]float64)
		for _, r := range report.Benchmarks {
			if r.Name != spec.base || r.NsPerOp <= 0 {
				continue
			}
			if cur, ok := seq[r.Gomaxprocs]; !ok || r.NsPerOp < cur {
				seq[r.Gomaxprocs] = r.NsPerOp
			}
		}
		if len(seq) == 0 {
			continue
		}
		for i := range report.Benchmarks {
			r := &report.Benchmarks[i]
			// A pair annotates its family, never its base; a self-pair
			// has no family but its base.
			isBase := r.Name == spec.base
			if r.NsPerOp <= 0 || isBase != self || !strings.HasPrefix(r.Name, spec.prefix) {
				continue
			}
			if report.NumCPU > 0 && r.Gomaxprocs > report.NumCPU {
				continue
			}
			at := r.Gomaxprocs
			if self {
				if at <= 1 {
					continue
				}
				at = 1
			}
			base, ok := seq[at]
			if !ok {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[speedupMetric] = base / r.NsPerOp
		}
	}
}

// gatedMetric is one of the per-benchmark metrics the gate checks.
type gatedMetric struct {
	unit string
	get  func(Result) float64
}

// gatedMetrics are gated independently: a run that holds ns/op steady
// while tripling its allocations is a regression the old ns/op-only
// gate waved through.
var gatedMetrics = []gatedMetric{
	{"ns/op", func(r Result) float64 { return r.NsPerOp }},
	{"B/op", func(r Result) float64 { return r.BytesPerOp }},
	{"allocs/op", func(r Result) float64 { return r.AllocsPerOp }},
}

// compare prints a delta table of fresh results against the baseline
// and returns how many metric regressions exceeded the threshold and
// how many benchmark variants were compared at all. Each gated metric
// is checked independently with its own failure line; benchmarks
// carrying speedup_vs_sequential additionally gate on that metric
// dropping more than speedupDropThreshold. Variants are keyed by
// (name, GOMAXPROCS), so a -cpu matrix gates each row separately.
// Missing and new benchmarks are informational only, and on a machine
// with fewer than minCores cores the multi-core rows and the speedup
// metric are SKIPped rather than judged. A benchmark that has a single
// row on each side — one that ran outside the -cpu matrix, at whatever
// GOMAXPROCS its machine defaulted to — is matched by name when the
// keys differ only in that proc count, and gated: a runner with another
// core count than the recorder's would otherwise report it NEW and
// GONE and gate nothing. Repeated results for one
// variant (`-count N`) are reduced to their per-metric minimum first —
// best-of-N is the standard noise damper for gating on shared CI
// hardware, where co-tenancy inflates individual runs far more often
// than it deflates them — and to the maximum for speedup, where
// bigger is better.
func compare(base, fresh *Report, opts compareOpts, w io.Writer) (regressions, compared int) {
	baseBy := bestByName(base)
	freshBy := bestByName(fresh)
	gateMulti := opts.numCPU >= opts.minCores
	baseVariants, freshVariants := variantsByName(baseBy), variantsByName(freshBy)
	reported := make(map[string]bool)
	for _, r := range fresh.Benchmarks {
		key := variantKey(r.Name, r.Gomaxprocs)
		if reported[key] {
			continue
		}
		reported[key] = true
		f := freshBy[key]
		b, ok := baseBy[key]
		byName := false
		if !ok && len(baseVariants[r.Name]) == 1 && len(freshVariants[r.Name]) == 1 {
			baseKey := baseVariants[r.Name][0]
			b, ok, byName = baseBy[baseKey], true, true
			reported[baseKey] = true
			key = fmt.Sprintf("%s (GOMAXPROCS %d -> %d)", r.Name, b.Gomaxprocs, f.Gomaxprocs)
		}
		if !ok {
			fmt.Fprintf(w, "NEW   %-45s %14.0f ns/op\n", key, f.NsPerOp)
			continue
		}
		if !gateMulti && f.Gomaxprocs > 1 && !byName {
			fmt.Fprintf(w, "SKIP  %-45s (%d cores < %d: multi-core variant not gated)\n", key, opts.numCPU, opts.minCores)
			continue
		}
		compared++
		for _, m := range gatedMetrics {
			bv, fv := m.get(b), m.get(f)
			if bv == 0 {
				// A zero baseline (a genuinely alloc-free benchmark, or
				// a legacy baseline that never recorded the metric —
				// the JSON cannot distinguish them) still gates: any
				// growth from zero is a regression. This is what keeps
				// the 0 allocs/op benchmarks honest; a legacy ns-only
				// baseline fails once, loudly, and is fixed by
				// refreshing it with `make bench`.
				if fv > 0 {
					fmt.Fprintf(w, "%-5s %-45s %14.0f -> %14.0f %-9s (grew from zero baseline)\n",
						"REGRESSION", key, bv, fv, m.unit)
					regressions++
				}
				continue
			}
			delta := (fv - bv) / bv
			verdict := "ok"
			if delta > opts.threshold {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-5s %-45s %14.0f -> %14.0f %-9s (%+.1f%%)\n",
				verdict, key, bv, fv, m.unit, delta*100)
		}
		if bs, fs := b.Metrics[speedupMetric], f.Metrics[speedupMetric]; bs > 0 && fs > 0 {
			if !gateMulti {
				fmt.Fprintf(w, "SKIP  %-45s (%d cores < %d: %s not gated)\n", key, opts.numCPU, opts.minCores, speedupMetric)
				continue
			}
			drop := (bs - fs) / bs
			verdict := "ok"
			if drop > speedupDropThreshold {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-5s %-45s %14.2fx -> %13.2fx %-9s (%+.1f%%)\n",
				verdict, key, bs, fs, speedupMetric, (fs-bs)/bs*100)
		}
	}
	for _, b := range base.Benchmarks {
		key := variantKey(b.Name, b.Gomaxprocs)
		if !reported[key] {
			reported[key] = true
			fmt.Fprintf(w, "GONE  %-45s was %14.0f ns/op\n", key, b.NsPerOp)
		}
	}
	return regressions, compared
}

// variantsByName lists each benchmark name's variant keys.
func variantsByName(byKey map[string]Result) map[string][]string {
	names := make(map[string][]string, len(byKey))
	for key, r := range byKey {
		names[r.Name] = append(names[r.Name], key)
	}
	return names
}

// bestByName reduces each benchmark variant's repeated results to
// per-metric minima (ns/op, B/op, allocs/op are each taken at their
// best run) and the speedup metric to its maximum.
func bestByName(r *Report) map[string]Result {
	best := make(map[string]Result, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		key := variantKey(b.Name, b.Gomaxprocs)
		cur, ok := best[key]
		if !ok {
			best[key] = b
			continue
		}
		if b.NsPerOp < cur.NsPerOp {
			cur.NsPerOp = b.NsPerOp
		}
		if b.BytesPerOp < cur.BytesPerOp {
			cur.BytesPerOp = b.BytesPerOp
		}
		if b.AllocsPerOp < cur.AllocsPerOp {
			cur.AllocsPerOp = b.AllocsPerOp
		}
		if s := b.Metrics[speedupMetric]; s > cur.Metrics[speedupMetric] {
			m := make(map[string]float64, len(cur.Metrics))
			for k, v := range cur.Metrics {
				m[k] = v
			}
			m[speedupMetric] = s
			cur.Metrics = m
		}
		best[key] = cur
	}
	return best
}

func parse(sc *bufio.Scanner) (*Report, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	report := &Report{Benchmarks: []Result{}}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				report.Benchmarks = append(report.Benchmarks, r)
			}
		}
	}
	return report, sc.Err()
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkX-8  12  95104318 ns/op  40 B/op  2 allocs/op  6520 events
//
// The -N suffix is the GOMAXPROCS the run used (a -cpu matrix emits
// one line per value); it is captured into the result rather than
// folded away, so variants stay distinct.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			name = name[:i]
			procs = n
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Gomaxprocs: procs, Runs: runs}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}
