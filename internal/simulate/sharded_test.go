package simulate

import (
	"bytes"
	"crypto/md5"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/gismo"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// serveToLog runs the given serve function over a fresh replay of w and
// returns the md5 of the emitted WMS log plus the run summary.
func serveToLog(t *testing.T, w interface {
	Stream() workload.Stream
}, run func(src workload.Stream, sinks StreamSinks) (*StreamResult, error)) ([md5.Size]byte, *StreamResult) {
	t.Helper()
	var buf bytes.Buffer
	lw := wmslog.NewWriter(&buf)
	res, err := run(w.Stream(), StreamSinks{Entry: lw.Write})
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return md5.Sum(buf.Bytes()), res
}

// TestRunStreamShardedLogInvariant is the sharded-serve contract: the
// served WMS log must be md5-identical between the sequential path and
// the sharded path at every lane count, for the same seed.
func TestRunStreamShardedLogInvariant(t *testing.T) {
	w := testWorkload(t, 21)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 2000 // exercise injection across lanes
	const seed = 99

	sums := map[string][md5.Size]byte{}
	results := map[string]*StreamResult{}
	sums["sequential"], results["sequential"] = serveToLog(t, w,
		func(src workload.Stream, sinks StreamSinks) (*StreamResult, error) {
			return RunStream(src, w.Population, w.Model.Horizon, cfg, seed, sinks)
		})
	for _, lanes := range []int{1, 4, 8} {
		key := fmt.Sprintf("lanes=%d", lanes)
		sums[key], results[key] = serveToLog(t, w,
			func(src workload.Stream, sinks StreamSinks) (*StreamResult, error) {
				return RunStreamSharded(src, w.Population, w.Model.Horizon, cfg, seed, lanes, sinks)
			})
	}

	base := results["sequential"]
	if base.Injected == 0 {
		t.Fatal("fixture injected nothing; the test would not cover spanning twins")
	}
	for key, sum := range sums {
		if sum != sums["sequential"] {
			t.Errorf("%s: log md5 differs from sequential", key)
		}
		r := results[key]
		if *r != *base {
			t.Errorf("%s: result %+v differs from sequential %+v", key, r, base)
		}
	}
}

// TestRunStreamShardedMatchesSinks pins the transfer-sink order and
// content of the sharded path to the sequential one.
func TestRunStreamShardedMatchesSinks(t *testing.T) {
	w := testWorkload(t, 22)
	cfg := DefaultConfig()
	const seed = 7

	collect := func(run func(src workload.Stream, sinks StreamSinks) (*StreamResult, error)) []trace.Transfer {
		var out []trace.Transfer
		_, err := run(w.Stream(), StreamSinks{
			Transfer: func(tr trace.Transfer) error { out = append(out, tr); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seqT := collect(func(src workload.Stream, sinks StreamSinks) (*StreamResult, error) {
		return RunStream(src, w.Population, w.Model.Horizon, cfg, seed, sinks)
	})
	shT := collect(func(src workload.Stream, sinks StreamSinks) (*StreamResult, error) {
		return RunStreamSharded(src, w.Population, w.Model.Horizon, cfg, seed, 5, sinks)
	})
	if len(seqT) != len(shT) {
		t.Fatalf("transfer counts differ: %d vs %d", len(seqT), len(shT))
	}
	for i := range seqT {
		if seqT[i] != shT[i] {
			t.Fatalf("transfer %d differs:\nseq:     %+v\nsharded: %+v", i, seqT[i], shT[i])
		}
	}
}

// TestRunStreamShardedValidation covers the one argument only the
// sharded driver takes; everything both drivers refuse is in
// TestRunStreamValidatesInput.
func TestRunStreamShardedValidation(t *testing.T) {
	w := testWorkload(t, 2)
	for _, lanes := range []int{0, -1, MaxServeLanes + 1} {
		if _, err := RunStreamSharded(w.Stream(), w.Population, w.Model.Horizon, DefaultConfig(), 1, lanes, StreamSinks{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("lanes=%d: err = %v, want ErrBadConfig", lanes, err)
		}
	}
}

// TestRunStreamShardedSkewedLanes is the liveness regression test for
// the hash-skew deadlock: a stream whose events all hash to one lane
// (a single client) must still complete at any lane count — the
// collector must never block on a cold lane while hot lanes stall the
// pipeline — AND the maximally skewed log must stay md5-identical to
// the sequential one. Guarded by a timeout so a regression fails
// instead of hanging the suite.
func TestRunStreamShardedSkewedLanes(t *testing.T) {
	m, err := gismo.Scaled(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := gismo.NewPopulation(1, m.Topology, rand.New(rand.NewPCG(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0 // entry count must equal the event count
	const n = 20_000
	const seed = 9

	logMD5 := func(run func(src workload.Stream, sinks StreamSinks) (*StreamResult, error)) ([md5.Size]byte, int, error) {
		var buf bytes.Buffer
		lw := wmslog.NewWriter(&buf)
		res, err := run(&syntheticStream{n: n, clients: 1}, StreamSinks{Entry: lw.Write})
		if err != nil {
			return [md5.Size]byte{}, 0, err
		}
		if err := lw.Flush(); err != nil {
			return [md5.Size]byte{}, 0, err
		}
		return md5.Sum(buf.Bytes()), res.Transfers, nil
	}
	seqSum, seqN, err := logMD5(func(src workload.Stream, sinks StreamSinks) (*StreamResult, error) {
		return RunStream(src, pop, int64(n), cfg, seed, sinks)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seqN != n {
		t.Fatalf("sequential served %d/%d transfers", seqN, n)
	}

	for _, lanes := range []int{2, 4, 8} {
		type outcome struct {
			sum [md5.Size]byte
			n   int
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			sum, served, err := logMD5(func(src workload.Stream, sinks StreamSinks) (*StreamResult, error) {
				return RunStreamSharded(src, pop, int64(n), cfg, seed, lanes, sinks)
			})
			done <- outcome{sum, served, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("lanes=%d: %v", lanes, o.err)
			}
			if o.n != n {
				t.Fatalf("lanes=%d: served %d/%d transfers", lanes, o.n, n)
			}
			if o.sum != seqSum {
				t.Errorf("lanes=%d: skewed log md5 differs from sequential", lanes)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("lanes=%d: sharded serve deadlocked on a skewed lane distribution", lanes)
		}
	}
}

// TestRunStreamShardedSinkError: a failing sink mid-run aborts the
// whole pipeline promptly — dispatcher, every lane worker, and the
// collector — surfacing the sink's error rather than deadlocking,
// whichever sink fails and at any lane count. Timeout-guarded so a
// liveness regression fails instead of hanging the suite.
func TestRunStreamShardedSinkError(t *testing.T) {
	w := testWorkload(t, 23)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 2000
	boom := errors.New("sink boom")

	for _, lanes := range []int{1, 4, 8} {
		for _, kind := range []string{"transfer", "entry"} {
			t.Run(fmt.Sprintf("%s/lanes=%d", kind, lanes), func(t *testing.T) {
				n := 0
				fail := func() error {
					n++
					if n == 10 {
						return boom
					}
					return nil
				}
				sinks := StreamSinks{}
				switch kind {
				case "transfer":
					sinks.Transfer = func(tr trace.Transfer) error { return fail() }
					// Entries must still be produced (and then drained
					// without leaking) when the other sink aborts.
					sinks.Entry = func(e *wmslog.Entry) error { return nil }
				case "entry":
					sinks.Entry = func(e *wmslog.Entry) error { return fail() }
				}
				done := make(chan error, 1)
				go func() {
					_, err := RunStreamSharded(w.Stream(), w.Population, w.Model.Horizon, cfg, 1, lanes, sinks)
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, boom) {
						t.Fatalf("err = %v, want sink error", err)
					}
				case <-time.After(60 * time.Second):
					t.Fatal("sharded serve wedged after a sink error")
				}
			})
		}
	}
}

// TestRunStreamShardedMemoryBounded is the arena-recycling contract:
// a long sharded run's live heap must stay bounded by the pipeline's
// occupancy (rings + reorder window + in-flight arena chunks), not
// grow with the transfer count — chunks must actually cycle back from
// the collector to the lane workers.
func TestRunStreamShardedMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement in -short mode")
	}
	m, err := gismo.Scaled(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := gismo.NewPopulation(64, m.Topology, rand.New(rand.NewPCG(5, 0)))
	if err != nil {
		t.Fatal(err)
	}

	const n = 400_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	var served int
	res, err := RunStreamSharded(&syntheticStream{n: n, clients: pop.Size()}, pop, int64(n), cfg, 3, 4, StreamSinks{
		Entry: func(e *wmslog.Entry) error { served++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Transfers != n || served != n {
		t.Fatalf("served %d/%d transfers (%d entries)", res.Transfers, n, served)
	}

	// Buffering the entries would cost ~100 MB; the pipeline needs only
	// its rings, the reorder window, and the circulating chunks. Allow
	// a generous 24 MB for noise.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const limit = 24 << 20
	if growth > limit {
		t.Errorf("live heap grew %d bytes during sharded run, want < %d", growth, limit)
	}
}
