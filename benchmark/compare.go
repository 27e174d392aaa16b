package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/benchmark/layers"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// quartiles summarizes one metric of one run: the reported value and
// the quartiles of the per-rep samples behind it (equal to the value
// for single-shot metrics such as setup_s and peak_rss_mb).
func quartiles(r *runResult, name string) (value, q1, q3 float64, ok bool) {
	m, ok := r.Metrics[name]
	if !ok {
		return 0, 0, 0, false
	}
	if s := r.Samples[name]; len(s) > 1 {
		return m.Value, layers.Quantile(s, 0.25), layers.Quantile(s, 0.75), true
	}
	return m.Value, m.Value, m.Value, true
}

// compareFiles prints, for every end-to-end metric on every workload,
// both runs' medians with quartiles, B's change relative to A, the
// bound, and a verdict: regressed when B is worse than A by more than
// the bound; unresolved when either run's own interquartile spread is
// wider than the bound, so the comparison cannot tell; ok otherwise.
// Every ratio's base is A.
func compareFiles(w io.Writer, spec *benchmarkSpec, pathA, pathB string) error {
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	untraced := func(f resultsFile, workload string) *runResult {
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace == 0 {
				return r
			}
		}
		return nil
	}
	fmt.Fprintf(w, "A = %s (seed %d, %s), B = %s (seed %d, %s); change = (B - A) / A\n",
		pathA, a.Seed, a.Env.Revision, pathB, b.Seed, b.Env.Revision)
	fmt.Fprintf(w, "%-10s %-22s %-34s %-34s %9s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-10s missing from one file\n", wl.Name)
			continue
		}
		for _, ms := range spec.EndToEnd {
			va, a1, a3, okA := quartiles(ra, ms.Name)
			vb, b1, b3, okB := quartiles(rb, ms.Name)
			if !okA || !okB || va == 0 {
				fmt.Fprintf(w, "%-10s %-22s missing from one file\n", wl.Name, ms.Name)
				continue
			}
			change := (vb - va) / va
			worse := change
			if ms.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > ms.Bound:
				verdict = "regressed"
				regressed++
			case (a3-a1)/va > ms.Bound || (b3-b1)/vb > ms.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-10s %-22s %-34s %-34s %+8.1f%% %6.0f%%  %s\n", wl.Name, ms.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", va, a1, a3, ms.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", vb, b1, b3, ms.Unit),
				100*change, 100*ms.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
