package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC
BenchmarkStreamingGenerateSequential-8   	      12	  95104318 ns/op	 7340032 B/op	   12345 allocs/op
BenchmarkStreamingGenerateShards8-8      	      33	  35104318 ns/op	 8340032 B/op	   22345 allocs/op	  19560 events
PASS
ok  	repro	4.189s
`

// gateOpts is the default gate configuration for tests: a machine with
// enough cores that nothing is skipped.
var gateOpts = compareOpts{threshold: 0.25, numCPU: 8, minCores: 4}

func TestParse(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" || report.CPU != "AMD EPYC" {
		t.Errorf("env fields: %+v", report)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(report.Benchmarks))
	}
	b0 := report.Benchmarks[0]
	if b0.Name != "BenchmarkStreamingGenerateSequential" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be split off)", b0.Name)
	}
	if b0.Gomaxprocs != 8 {
		t.Errorf("gomaxprocs = %d, want 8 (the -N suffix must be captured)", b0.Gomaxprocs)
	}
	if b0.Runs != 12 || b0.NsPerOp != 95104318 || b0.BytesPerOp != 7340032 || b0.AllocsPerOp != 12345 {
		t.Errorf("values: %+v", b0)
	}
	b1 := report.Benchmarks[1]
	if b1.Metrics["events"] != 19560 {
		t.Errorf("custom metric lost: %+v", b1)
	}
}

// TestParseCPUMatrix: a -cpu 1,2,4 run emits one line per GOMAXPROCS;
// each must survive as its own variant rather than collapsing.
func TestParseCPUMatrix(t *testing.T) {
	matrix := `BenchmarkServe     	      10	 100 ns/op
BenchmarkServe-2   	      10	  60 ns/op
BenchmarkServe-4   	      10	  40 ns/op
`
	report, err := parse(bufio.NewScanner(strings.NewReader(matrix)))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d variants, want 3", len(report.Benchmarks))
	}
	for i, want := range []int{1, 2, 4} {
		if got := report.Benchmarks[i].Gomaxprocs; got != want {
			t.Errorf("variant %d gomaxprocs = %d, want %d", i, got, want)
		}
		if report.Benchmarks[i].Name != "BenchmarkServe" {
			t.Errorf("variant %d name = %q", i, report.Benchmarks[i].Name)
		}
	}
}

// TestAnnotateSpeedup: parallel variants get speedup_vs_sequential
// against the sequential base at the same GOMAXPROCS, and only there.
func TestAnnotateSpeedup(t *testing.T) {
	report := &Report{Benchmarks: []Result{
		{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 1000},
		{Name: "BenchmarkServe", Gomaxprocs: 4, NsPerOp: 900},
		{Name: "BenchmarkServeSharded4", Gomaxprocs: 1, NsPerOp: 1100},
		{Name: "BenchmarkServeSharded4", Gomaxprocs: 4, NsPerOp: 300},
		{Name: "BenchmarkServeSharded4", Gomaxprocs: 16, NsPerOp: 200}, // no base at 16
		{Name: "BenchmarkUnrelated", Gomaxprocs: 4, NsPerOp: 50},
	}}
	annotateSpeedup(report, []speedupSpec{{prefix: "BenchmarkServeSharded", base: "BenchmarkServe"}})

	want := map[int]float64{1: 1000.0 / 1100, 4: 900.0 / 300}
	for _, r := range report.Benchmarks {
		switch {
		case r.Name == "BenchmarkServeSharded4" && r.Gomaxprocs == 16:
			if _, ok := r.Metrics[speedupMetric]; ok {
				t.Error("speedup computed without a same-GOMAXPROCS baseline")
			}
		case r.Name == "BenchmarkServeSharded4":
			if got := r.Metrics[speedupMetric]; got != want[r.Gomaxprocs] {
				t.Errorf("gomaxprocs=%d speedup = %v, want %v", r.Gomaxprocs, got, want[r.Gomaxprocs])
			}
		default:
			if _, ok := r.Metrics[speedupMetric]; ok {
				t.Errorf("%s wrongly annotated", r.Name)
			}
		}
	}
}

// TestAnnotateSpeedupSelfPaired: a benchmark paired with itself scales
// with GOMAXPROCS alone, so its -cpu 1 row is the baseline of its other
// rows — and of nothing else.
func TestAnnotateSpeedupSelfPaired(t *testing.T) {
	report := &Report{Benchmarks: []Result{
		{Name: "BenchmarkLoad", Gomaxprocs: 1, NsPerOp: 1200},
		{Name: "BenchmarkLoad", Gomaxprocs: 2, NsPerOp: 800},
		{Name: "BenchmarkLoad", Gomaxprocs: 4, NsPerOp: 400},
		{Name: "BenchmarkLoadOther", Gomaxprocs: 4, NsPerOp: 100},
	}}
	annotateSpeedup(report, []speedupSpec{{prefix: "BenchmarkLoad", base: "BenchmarkLoad"}})
	want := []float64{0, 1.5, 3, 0}
	for i, r := range report.Benchmarks {
		if got := r.Metrics[speedupMetric]; got != want[i] {
			t.Errorf("%s-%d speedup = %v, want %v", r.Name, r.Gomaxprocs, got, want[i])
		}
	}
}

// TestParseSpeedupSpecs: the flag is a comma-separated list of
// prefix=base pairs; a malformed pair fails parsing loudly.
func TestParseSpeedupSpecs(t *testing.T) {
	specs, err := parseSpeedupSpecs("BenchA=BenchSeqA, BenchB=BenchSeqB")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].prefix != "BenchA" || specs[1].base != "BenchSeqB" {
		t.Errorf("parsed %+v", specs)
	}
	if s, err := parseSpeedupSpecs(""); err != nil || s != nil {
		t.Errorf("empty flag: %v %v", s, err)
	}
	if _, err := parseSpeedupSpecs("BenchA=Base,oops"); err == nil {
		t.Error("malformed pair accepted")
	}
}

// TestAnnotateSpeedupMultiPair: each pair annotates its own family
// against its own base; families never cross.
func TestAnnotateSpeedupMultiPair(t *testing.T) {
	report := &Report{Benchmarks: []Result{
		{Name: "BenchmarkServe", Gomaxprocs: 4, NsPerOp: 800},
		{Name: "BenchmarkServeSharded4", Gomaxprocs: 4, NsPerOp: 200},
		{Name: "BenchmarkGenSequential", Gomaxprocs: 4, NsPerOp: 600},
		{Name: "BenchmarkGenShards4", Gomaxprocs: 4, NsPerOp: 300},
	}}
	annotateSpeedup(report, []speedupSpec{
		{prefix: "BenchmarkServeSharded", base: "BenchmarkServe"},
		{prefix: "BenchmarkGenShards", base: "BenchmarkGenSequential"},
	})
	got := map[string]float64{}
	for _, r := range report.Benchmarks {
		if s, ok := r.Metrics[speedupMetric]; ok {
			got[r.Name] = s
		}
	}
	want := map[string]float64{"BenchmarkServeSharded4": 4.0, "BenchmarkGenShards4": 2.0}
	if len(got) != len(want) || got["BenchmarkServeSharded4"] != 4.0 || got["BenchmarkGenShards4"] != 2.0 {
		t.Errorf("speedups = %v, want %v", got, want)
	}
}

// TestCompareGatesSpeedup: a speedup_vs_sequential drop beyond 15%
// fails the gate even when raw ns/op stays inside its own threshold.
func TestCompareGatesSpeedup(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkSharded", Gomaxprocs: 4, NsPerOp: 1000,
			Metrics: map[string]float64{speedupMetric: 2.0}},
	}}
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkSharded", Gomaxprocs: 4, NsPerOp: 1150, // +15% ns: inside 25%
			Metrics: map[string]float64{speedupMetric: 1.5}}, // -25% speedup: regression
	}}
	var out strings.Builder
	got, compared := compare(base, fresh, gateOpts, &out)
	if got != 1 || compared != 1 {
		t.Fatalf("regressions = %d compared = %d, want 1 and 1\n%s", got, compared, out.String())
	}
	if !strings.Contains(out.String(), speedupMetric) {
		t.Errorf("failure line does not name the speedup metric:\n%s", out.String())
	}

	// A drop within 15% passes.
	fresh.Benchmarks[0].Metrics[speedupMetric] = 1.8
	out.Reset()
	if got, _ := compare(base, fresh, gateOpts, &out); got != 0 {
		t.Fatalf("10%% speedup wobble gated:\n%s", out.String())
	}
}

// TestCompareVariantKeys: -cpu matrix rows gate independently — a
// regression at GOMAXPROCS=4 must be caught even when the =1 row
// improved.
func TestCompareVariantKeys(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 1000},
		{Name: "BenchmarkServe", Gomaxprocs: 4, NsPerOp: 400},
	}}
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 900},
		{Name: "BenchmarkServe", Gomaxprocs: 4, NsPerOp: 800},
	}}
	var out strings.Builder
	got, compared := compare(base, fresh, gateOpts, &out)
	if got != 1 || compared != 2 {
		t.Fatalf("regressions = %d compared = %d, want 1 and 2\n%s", got, compared, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkServe-4") {
		t.Errorf("failure not attributed to the -4 variant:\n%s", out.String())
	}
}

// TestCompareSkipsMultiCoreOnSmallMachines: below min-cores, multi-core
// variants and the speedup metric are SKIPped, never failed — but the
// single-proc rows still gate.
func TestCompareSkipsMultiCoreOnSmallMachines(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 1000},
		{Name: "BenchmarkSharded", Gomaxprocs: 4, NsPerOp: 400,
			Metrics: map[string]float64{speedupMetric: 2.5}},
	}}
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 1000},
		{Name: "BenchmarkSharded", Gomaxprocs: 4, NsPerOp: 4000, // 10×: meaningless on 1 core
			Metrics: map[string]float64{speedupMetric: 0.3}},
	}}
	small := compareOpts{threshold: 0.25, numCPU: 1, minCores: 4}
	var out strings.Builder
	got, compared := compare(base, fresh, small, &out)
	if got != 0 || compared != 1 {
		t.Fatalf("regressions = %d compared = %d, want 0 and 1\n%s", got, compared, out.String())
	}
	if !strings.Contains(out.String(), "SKIP") {
		t.Errorf("skipped variant not visibly reported:\n%s", out.String())
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader("hello\nBenchmarkBroken abc\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 0 {
		t.Errorf("garbage parsed as benchmarks: %+v", report.Benchmarks)
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 2000},
		{Name: "BenchmarkGone", NsPerOp: 500},
	}}
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1100}, // +10%: within threshold
		{Name: "BenchmarkB", NsPerOp: 2600}, // +30%: regression
		{Name: "BenchmarkNew", NsPerOp: 10},
	}}
	var out strings.Builder
	got, compared := compare(base, fresh, gateOpts, &out)
	if got != 1 || compared != 2 {
		t.Fatalf("regressions = %d compared = %d, want 1 and 2\n%s", got, compared, out.String())
	}
	report := out.String()
	for _, want := range []string{"REGRESSION", "BenchmarkB", "NEW", "BenchmarkNew", "GONE", "BenchmarkGone"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestCompareImprovementAndExactPass(t *testing.T) {
	base := &Report{Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 1000}}}
	fresh := &Report{Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 700}}}
	var out strings.Builder
	if got, _ := compare(base, fresh, gateOpts, &out); got != 0 {
		t.Fatalf("improvement counted as regression:\n%s", out.String())
	}
	// Exactly at the threshold is not a regression (strictly beyond).
	fresh.Benchmarks[0].NsPerOp = 1250
	if got, _ := compare(base, fresh, gateOpts, &out); got != 0 {
		t.Fatal("threshold boundary counted as regression")
	}
}

// TestCompareGatesAllocsAndBytes: allocs/op and bytes/op regressions
// fail the gate independently of ns/op, each with its own metric-named
// line; a zero-valued baseline metric gates on any growth at all.
func TestCompareGatesAllocsAndBytes(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 100},
		{Name: "BenchmarkZeroAlloc", NsPerOp: 500}, // allocs 0 → omitted from JSON
	}}
	fresh := &Report{Benchmarks: []Result{
		// ns/op fine, allocs +100%, bytes +50%: two regressions.
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 3 << 19, AllocsPerOp: 200},
		// Growing from a zero baseline is a regression for each grown
		// metric — the zero-alloc property must not rot silently.
		{Name: "BenchmarkZeroAlloc", NsPerOp: 510, BytesPerOp: 96, AllocsPerOp: 3},
	}}
	var out strings.Builder
	got, compared := compare(base, fresh, gateOpts, &out)
	if got != 4 || compared != 2 {
		t.Fatalf("regressions = %d compared = %d, want 4 and 2\n%s", got, compared, out.String())
	}
	report := out.String()
	for _, want := range []string{"allocs/op", "B/op"} {
		if !strings.Contains(report, "REGRESSION BenchmarkA") ||
			!strings.Contains(report, want) {
			t.Errorf("report missing per-metric failure for %q:\n%s", want, report)
		}
	}
	if !strings.Contains(report, "REGRESSION BenchmarkZeroAlloc") ||
		!strings.Contains(report, "grew from zero baseline") {
		t.Errorf("zero-baseline growth not gated:\n%s", report)
	}

	// A fresh run that stays at zero passes.
	steady := &Report{Benchmarks: []Result{{Name: "BenchmarkZeroAlloc", NsPerOp: 505}}}
	out.Reset()
	if got, _ := compare(base, steady, gateOpts, &out); got != 0 {
		t.Fatalf("steady zero-alloc benchmark flagged:\n%s", out.String())
	}
}

// TestCompareBestOfNPerMetric: the -count N reduction takes each
// metric's own minimum, so one noisy run cannot poison another
// metric's best.
func TestCompareBestOfNPerMetric(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
	}}
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1050, AllocsPerOp: 500}, // fast but alloc-noisy
		{Name: "BenchmarkA", NsPerOp: 1400, AllocsPerOp: 100}, // slow but alloc-clean
	}}
	var out strings.Builder
	if got, _ := compare(base, fresh, gateOpts, &out); got != 0 {
		t.Fatalf("per-metric best-of-N not applied:\n%s", out.String())
	}
}

// TestCompareBestOfNAndEmptyIntersection: repeated -count runs reduce
// to their fastest before gating, and a gate that compared nothing is
// reported as such (the caller fails it).
func TestCompareBestOfNAndEmptyIntersection(t *testing.T) {
	base := &Report{Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 1000}}}
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1400}, // noisy run
		{Name: "BenchmarkA", NsPerOp: 1050}, // best run: within threshold
		{Name: "BenchmarkA", NsPerOp: 1300},
	}}
	var out strings.Builder
	got, compared := compare(base, fresh, gateOpts, &out)
	if got != 0 || compared != 1 {
		t.Fatalf("best-of-N not applied: regressions=%d compared=%d\n%s", got, compared, out.String())
	}
	if !strings.Contains(out.String(), "1050") {
		t.Errorf("table should show the best run:\n%s", out.String())
	}

	disjoint := &Report{Benchmarks: []Result{{Name: "BenchmarkRenamed", NsPerOp: 10}}}
	if _, compared := compare(base, disjoint, gateOpts, &out); compared != 0 {
		t.Fatalf("disjoint sets reported %d compared", compared)
	}
}

// TestLoadBaselineRefusesDuplicateKey: a baseline holds one row per
// (name, gomaxprocs); two rows for one variant are an error, whether
// the single-proc row spells its gomaxprocs or leaves it out.
func TestLoadBaselineRefusesDuplicateKey(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write(`{"benchmarks":[
		{"name":"BenchmarkA","gomaxprocs":1,"runs":1,"ns_per_op":10},
		{"name":"BenchmarkA","gomaxprocs":2,"runs":1,"ns_per_op":9}]}`)
	if base, err := loadBaseline(good); err != nil || len(base.Benchmarks) != 2 {
		t.Fatalf("distinct variants refused: %v", err)
	}
	dup := write(`{"benchmarks":[
		{"name":"BenchmarkA","runs":1,"ns_per_op":10},
		{"name":"BenchmarkA","gomaxprocs":1,"runs":1,"ns_per_op":12}]}`)
	if _, err := loadBaseline(dup); err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("duplicate key accepted: %v", err)
	}
}

// TestAnnotateSpeedupRefusesTimeSlicedRows: a row that ran with more
// procs than the machine has cores was time-sliced; it must carry no
// speedup_vs_sequential, paired or self-paired, while rows the cores
// can actually run in parallel keep theirs. An unknown core count
// (legacy reports) refuses nothing.
func TestAnnotateSpeedupRefusesTimeSlicedRows(t *testing.T) {
	rows := func() []Result {
		return []Result{
			{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 1000},
			{Name: "BenchmarkServe", Gomaxprocs: 2, NsPerOp: 600},
			{Name: "BenchmarkServe", Gomaxprocs: 4, NsPerOp: 700},
			{Name: "BenchmarkServe", Gomaxprocs: 8, NsPerOp: 750},
			{Name: "BenchmarkServeSharded4", Gomaxprocs: 1, NsPerOp: 1100},
			{Name: "BenchmarkServeSharded4", Gomaxprocs: 2, NsPerOp: 500},
			{Name: "BenchmarkServeSharded4", Gomaxprocs: 4, NsPerOp: 350},
			{Name: "BenchmarkServeSharded4", Gomaxprocs: 8, NsPerOp: 300},
			{Name: "BenchmarkLoad", Gomaxprocs: 1, NsPerOp: 1200},
			{Name: "BenchmarkLoad", Gomaxprocs: 2, NsPerOp: 800},
			{Name: "BenchmarkLoad", Gomaxprocs: 4, NsPerOp: 790},
		}
	}
	specs := []speedupSpec{
		{prefix: "BenchmarkServeSharded", base: "BenchmarkServe"},
		{prefix: "BenchmarkLoad", base: "BenchmarkLoad"},
	}
	annotated := func(numCPU int) map[string]bool {
		report := &Report{NumCPU: numCPU, Benchmarks: rows()}
		annotateSpeedup(report, specs)
		got := map[string]bool{}
		for _, r := range report.Benchmarks {
			if _, ok := r.Metrics[speedupMetric]; ok {
				got[variantKey(r.Name, r.Gomaxprocs)] = true
			}
		}
		return got
	}
	onTwoCores := annotated(2)
	for _, key := range []string{"BenchmarkServeSharded4", "BenchmarkServeSharded4-2", "BenchmarkLoad-2"} {
		if !onTwoCores[key] {
			t.Errorf("2 cores: %s lost its speedup", key)
		}
	}
	for _, key := range []string{"BenchmarkServeSharded4-4", "BenchmarkServeSharded4-8", "BenchmarkLoad-4"} {
		if onTwoCores[key] {
			t.Errorf("2 cores: %s carries a speedup measured by time-slicing", key)
		}
	}
	if got := len(annotated(8)); got != 6 {
		t.Errorf("8 cores: %d rows annotated, want all 6", got)
	}
	if got := len(annotated(0)); got != 6 {
		t.Errorf("unknown core count: %d rows annotated, want all 6", got)
	}
}

// TestCompareMatchesSingleRowBenchmarksByName: a benchmark recorded
// outside the -cpu matrix carries the recorder's default GOMAXPROCS in
// its key; on a runner with another core count it must still be
// compared — and gated — rather than reported NEW and GONE. Matrix
// benchmarks (several rows per name) keep matching by exact key.
func TestCompareMatchesSingleRowBenchmarksByName(t *testing.T) {
	base := &Report{NumCPU: 2, Benchmarks: []Result{
		{Name: "BenchmarkStreamingEncodeEntry", Gomaxprocs: 2, NsPerOp: 400},
		{Name: "BenchmarkStreamingParseEntry", Gomaxprocs: 2, NsPerOp: 420},
		{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 1000},
		{Name: "BenchmarkServe", Gomaxprocs: 2, NsPerOp: 600},
		{Name: "BenchmarkRetired", Gomaxprocs: 2, NsPerOp: 10},
	}}
	fresh := &Report{NumCPU: 8, Benchmarks: []Result{
		{Name: "BenchmarkStreamingEncodeEntry", Gomaxprocs: 8, NsPerOp: 390},
		{Name: "BenchmarkStreamingEncodeEntry", Gomaxprocs: 8, NsPerOp: 900}, // -count 2: best run gates
		{Name: "BenchmarkStreamingParseEntry", Gomaxprocs: 8, NsPerOp: 800},  // +90 %
		{Name: "BenchmarkServe", Gomaxprocs: 1, NsPerOp: 1000},
		{Name: "BenchmarkServe", Gomaxprocs: 8, NsPerOp: 300}, // no -8 row in the baseline
		{Name: "BenchmarkAdded", Gomaxprocs: 8, NsPerOp: 5},
	}}
	var out strings.Builder
	regressions, compared := compare(base, fresh, gateOpts, &out)
	if regressions != 1 || compared != 3 {
		t.Fatalf("regressions = %d compared = %d, want 1 (ParseEntry) and 3\n%s", regressions, compared, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"ok    BenchmarkStreamingEncodeEntry (GOMAXPROCS 2 -> 8)",
		"REGRESSION BenchmarkStreamingParseEntry (GOMAXPROCS 2 -> 8)",
		"NEW   BenchmarkServe-8",
		"GONE  BenchmarkServe-2",
		"NEW   BenchmarkAdded-8",
		"GONE  BenchmarkRetired-2",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, wrong := range []string{"NEW   BenchmarkStreaming", "GONE  BenchmarkStreaming"} {
		if strings.Contains(report, wrong) {
			t.Errorf("single-row benchmark reported %q:\n%s", wrong, report)
		}
	}

	// On a small runner the by-name rows still gate: their proc count
	// is the machine's default, not a scaling claim.
	out.Reset()
	small := compareOpts{threshold: 0.25, numCPU: 2, minCores: 4}
	fresh2 := &Report{NumCPU: 2, Benchmarks: []Result{
		{Name: "BenchmarkStreamingEncodeEntry", Gomaxprocs: 2, NsPerOp: 1000},
	}}
	base1 := &Report{NumCPU: 1, Benchmarks: []Result{
		{Name: "BenchmarkStreamingEncodeEntry", Gomaxprocs: 1, NsPerOp: 400},
	}}
	if regressions, compared := compare(base1, fresh2, small, &out); regressions != 1 || compared != 1 {
		t.Fatalf("small runner: regressions = %d compared = %d, want 1 and 1\n%s", regressions, compared, out.String())
	}
}
