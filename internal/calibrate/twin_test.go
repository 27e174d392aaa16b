package calibrate

import (
	"reflect"
	"testing"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// TestTwinOwnedTraceMatchesNew: the trace the twin collects, sorts and
// sanitizes in place is the one trace.New followed by Sanitize builds,
// with their two copies, over the same served transfers — including
// transfers that escape the horizon, which sanitization drops.
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
	_, err = simulate.RunStreamSharded(ws, ws.Population(), m.Horizon, simulate.DefaultConfig(), seed, simulate.DefaultServeLanes(), simulate.StreamSinks{
		Names: func(n *trace.Names) { names = n },
		Transfer: func(tr trace.Transfer) error {
			served = append(served, tr)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := twinTrace(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "twin trace", got, served, m.Horizon, 0)
	if names == nil || len(names.IPs) == 0 || !reflect.DeepEqual(got.Names, names) {
		t.Errorf("twin trace does not carry the serving run's name tables")
	}

	// The server ends every transfer by the horizon, so the stream above
	// gives sanitization nothing to drop: run it again with one transfer
	// that outlives the horizon and one that starts before the trace.
	served = append(served,
		trace.Transfer{Client: 1, IP: 1, AS: 1, Start: m.Horizon - 5, Duration: 10},
		trace.Transfer{Client: 2, IP: 2, AS: 1, Start: -1, Duration: 10})
	var c trace.Collector
	for _, tr := range served {
		c.Add(tr)
	}
	got, report, err := c.Trace(m.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if report.DroppedOutside != 2 {
		t.Errorf("collector report: %s, want 2 dropped outside", report)
	}
	sameTrace(t, "collected trace", got, served, m.Horizon, 2)
}

// sameTrace checks got against trace.New + Sanitize over served.
func sameTrace(t *testing.T, name string, got *trace.Trace, served []trace.Transfer, horizon int64, dropped int) {
	t.Helper()
	tr, err := trace.New(horizon, served)
	if err != nil {
		t.Fatal(err)
	}
	want, report := tr.Sanitize()
	if report.DroppedOutside != dropped || report.Kept != len(served)-dropped {
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
