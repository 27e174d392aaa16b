// Command benchmark is the repo benchmark defined by BENCHMARK.json: four
// workloads measured end to end at the users' entry points (the lsmgen
// and lsmcal binaries, liveserver's client/server API), plus a traced
// pass that times calls into each internal layer. See README.md.
//
// Usage, from the repository root:
//
//	go run ./benchmark [-seed 2002] [-seconds 20]            every workload, untraced then traced
//	go run ./benchmark -workload gen_logs -trace 0|1 ...      one run; last stdout line is its JSON result
//	go run ./benchmark -compare A.json B.json                 compare two results files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/benchmark/layers"
)

// processStart anchors setup_s at child start.
var processStart = time.Now()

const (
	defaultSeed    = 2002
	defaultSeconds = 20 // BENCHMARK.json run_seconds
	outDir         = "benchmark/out"
)

var workloadNames = []string{"gen_logs", "char_logs", "twin_loop", "live_loop"}

// harness is what one run needs to know.
type harness struct {
	root    string // repository root
	out     string // scratch and results directory
	sizes   layers.Sizes
	seed    int64
	seconds float64
	lsmgen  string // built binaries
	lsmcal  string
	buildS  float64
	log     io.Writer // progress and warnings
	tables  io.Writer // self-time tables of the traced pass
}

// summary is the last stdout line of a run: exactly these four keys.
type summary struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   layers.Metrics `json:"metrics"`
}

// runResult is one run of one workload, as written to the results
// files.
type runResult struct {
	summary

	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	// Samples holds the per-rep values behind each reported median, so
	// -compare can show quartiles.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Info    map[string]float64   `json:"info,omitempty"`
	// Identity is the output every rep of a CLI workload reproduced: the
	// log md5, or spec md5 ":" stdout md5. pins.json pins it at seed 2002.
	Identity string   `json:"output_identity,omitempty"`
	Notes    []string `json:"notes,omitempty"` // failed checks and probe errors
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its JSON result as the last line")
		seed     = flag.Int64("seed", defaultSeed, "workload seed; 2002 additionally checks the pinned digests")
		seconds  = flag.Float64("seconds", defaultSeconds, "timed budget of one untraced workload run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizes and two reps: exercises every path in seconds")
		compare  = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		spec, err := loadSpec(".")
		if err != nil {
			fatal(err)
		}
		if err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	h := &harness{root: ".", out: outDir, sizes: layers.Full, seed: *seed, seconds: *seconds, log: os.Stderr, tables: os.Stdout}
	if *smoke {
		h.sizes = layers.Smoke
	}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "" {
		passes := []int{0, 1}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "trace" {
				passes = []int{*trace}
			}
		})
		if err := h.runAll(passes, *smoke); err != nil {
			fatal(err)
		}
		return
	}
	captureEnvironment(h.log)
	if err := h.build(); err != nil {
		fatal(err)
	}
	res, err := h.run(*workload, *trace)
	if err != nil {
		fatal(err)
	}
	printMetrics(os.Stdout, res)
	if err := writeJSON(h.resultPath(*workload, *trace), res); err != nil {
		fatal(err)
	}
	last, err := json.Marshal(res.summary)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", last)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// build compiles the two programs the CLI workloads run. Build time is
// info, not set-up: it is excluded from setup_s.
func (h *harness) build() error {
	bin, err := filepath.Abs(filepath.Join(h.out, "bin"))
	if err != nil {
		return err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/lsmgen", "./cmd/lsmcal")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/lsmgen ./cmd/lsmcal: %w: %s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	h.lsmgen, h.lsmcal = filepath.Join(bin, "lsmgen"), filepath.Join(bin, "lsmcal")
	return nil
}

// run executes one workload, untraced or traced.
func (h *harness) run(workload string, trace int) (*runResult, error) {
	if !slices.Contains(workloadNames, workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	work := filepath.Join(h.out, "work", fmt.Sprintf("%s-trace%d", workload, trace))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	res := &runResult{
		summary:  summary{Correct: true, Metrics: layers.Metrics{}},
		Workload: workload, Trace: trace, Seed: h.seed,
		Samples: map[string][]float64{}, Info: map[string]float64{"build_s": h.buildS},
	}
	var err error
	if trace == 1 {
		err = h.runTraced(workload, work, res)
	} else if workload == "live_loop" {
		err = h.runLive(work, res)
	} else {
		err = h.runCLI(workload, work, res)
	}
	if err != nil {
		return nil, err
	}
	for _, note := range res.Notes {
		fmt.Fprintln(h.log, "benchmark: FAILED CHECK:", note)
	}
	return res, nil
}

func (h *harness) resultPath(workload string, trace int) string {
	return filepath.Join(h.out, fmt.Sprintf("result-%s-trace%d.json", workload, trace))
}

// resultsFile is what a full run writes and -compare reads.
type resultsFile struct {
	Env     environment  `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// runAll runs every workload one after another, each pass in a child
// process of its own so peak_rss_mb is per workload, and writes
// results.json.
func (h *harness) runAll(passes []int, smoke bool) error {
	env := captureEnvironment(h.log)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Env: env, Seed: h.seed, Seconds: h.seconds}
	failed := 0
	for _, trace := range passes {
		for _, name := range workloadNames {
			args := []string{"-workload", name, "-seed", fmt.Sprint(h.seed), "-seconds", fmt.Sprint(h.seconds), "-trace", fmt.Sprint(trace)}
			if smoke {
				args = append(args, "-smoke")
			}
			fmt.Printf("== %s (trace %d)\n", name, trace)
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res runResult
			if err := readJSON(h.resultPath(name, trace), &res); err != nil {
				return fmt.Errorf("%s trace %d: %v (child: %v)", name, trace, err, runErr)
			}
			if runErr != nil || !res.Correct || res.Failed > 0 {
				failed++
			}
			file.Runs = append(file.Runs, &res)
		}
	}
	path := filepath.Join(h.out, "results.json")
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s; trace files under %s\n", path, h.out)
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed a check or an operation", failed)
	}
	return nil
}

func printMetrics(w io.Writer, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (trace %d, seed %d): ops_attempted %d, ops_failed %d, correct %v\n",
		res.Workload, res.Trace, res.Seed, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("  %-42s %14.4f %s", name, m.Value, m.Unit)
		if s := res.Samples[name]; len(s) > 1 {
			line += fmt.Sprintf("   [q1 %.4f, q3 %.4f, n %d]", layers.Quantile(s, 0.25), layers.Quantile(s, 0.75), len(s))
		}
		fmt.Fprintln(w, line)
	}
	infos := make([]string, 0, len(res.Info))
	for name := range res.Info {
		infos = append(infos, name)
	}
	sort.Strings(infos)
	for _, name := range infos {
		fmt.Fprintf(w, "  info %-37s %14.4f\n", name, res.Info[name])
	}
	if res.Identity != "" {
		fmt.Fprintf(w, "  info output identity %s\n", res.Identity)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// environment is recorded with every full run so a number can be
// attributed to the box it came from.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Revision   string  `json:"git_revision"`
	LoadAvg1   float64 `json:"loadavg_1min"`
}

func captureEnvironment(warn io.Writer) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Revision: "unknown", LoadAvg1: -1,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Revision = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(data), &env.LoadAvg1)
	}
	if env.NumCPU < 2 {
		fmt.Fprintf(warn, "benchmark: WARNING: %d CPU: the parallel metrics (gen_parallel_speedup, *_sharded_*) measure time-slicing, not scaling\n", env.NumCPU)
	}
	if env.LoadAvg1 > float64(env.NumCPU) {
		fmt.Fprintf(warn, "benchmark: WARNING: 1-minute load average %.2f exceeds %d CPUs: timings will be noisy\n", env.LoadAvg1, env.NumCPU)
	}
	return env
}
