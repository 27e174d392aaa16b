package calibrate

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// TestTwinOwnedTraceMatchesNew: the rows the twin observes — the
// sharded stream served into a Transfer sink under the default server —
// build (trace.New, then Sanitize) the trace the materialized workload
// served leaves in its log (servedTrace), country table included.
func TestTwinOwnedTraceMatchesNew(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	const seed = 11

	ws, err := gismo.NewStreamSeeded(m, seed, gismo.DefaultShards())
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	var served []trace.Transfer
	var names *trace.Names
	_, err = simulate.RunStream(ws, ws.Population(), m.Horizon, simulate.DefaultConfig(), seed, simulate.StreamSinks{
		Names: func(n *trace.Names) { names = n },
		Transfer: func(tr trace.Transfer) error {
			served = append(served, tr)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := servedTrace(t, m, seed)
	sameTrace(t, "twin trace", got, served, m.Horizon, 0)
	if names == nil || len(names.Countries) == 0 || !reflect.DeepEqual(got.Names, names) {
		t.Errorf("twin trace does not carry the serving run's country table")
	}

}

// TestTwinMatchesObserveOfServe: the twin, observed as it is served
// with no trace built, is core.Observe of the served trace under the
// default server (servedTrace), field for field, at every core count.
func TestTwinMatchesObserveOfServe(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	const seed = 11
	want := observe(t, servedTrace(t, m, seed))
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, err := Twin(m, seed, 1500)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("Twin differs from Observe of the served trace")
			}
		})
	}
}

// sameTrace checks got against trace.New + Sanitize over served.
func sameTrace(t *testing.T, name string, got *trace.Trace, served []trace.Transfer, horizon int64, dropped int) {
	t.Helper()
	tr, err := trace.New(horizon, served)
	if err != nil {
		t.Fatal(err)
	}
	want, report := tr.Sanitize()
	if report.DroppedOutside != dropped || report.Kept != len(served)-dropped-report.DroppedSpanning {
		t.Fatalf("%s: reference %s, want %d dropped outside", name, report, dropped)
	}
	if got.Horizon != want.Horizon || !reflect.DeepEqual(got.Transfers, want.Transfers) {
		t.Errorf("%s differs from New + Sanitize: %d transfers over %d s, want %d over %d s",
			name, got.NumTransfers(), got.Horizon, want.NumTransfers(), want.Horizon)
	}
}

// TestValidateOrderStable: the KS checks run concurrently, each into its
// own slot, so the report's rows keep their order and values run after
// run.
func TestValidateOrderStable(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	twin, err := Twin(m, 11, 1500)
	if err != nil {
		t.Fatal(err)
	}
	layers := []string{
		"client/interarrivals", "session/on-times", "session/off-times", "session/transfers",
		"session/intra-gaps", "transfer/lengths", "transfer/interarrivals",
	}
	first := Validate(char, twin)
	if len(first.Checks) != len(layers) {
		t.Fatalf("%d checks, want %d", len(first.Checks), len(layers))
	}
	for i, c := range first.Checks {
		if c.Layer != layers[i] {
			t.Errorf("check %d is %q, want %q", i, c.Layer, layers[i])
		}
	}
	for run := 1; run < 50; run++ {
		if rep := Validate(char, twin); !reflect.DeepEqual(rep, first) {
			t.Fatalf("run %d: report differs from the first:\n%+v\n%+v", run, rep.Checks, first.Checks)
		}
	}
}
