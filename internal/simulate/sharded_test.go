package simulate

import (
	"bytes"
	"crypto/md5"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gismo"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// The tests in this file serve live sharded generator streams
// (gismo.WorkloadStream) through RunStream, compare what the sinks see
// to referenceRunStream's sequential loop, and check that every run —
// including every failing one — closes the stream and leaves no
// goroutine behind.

// liveSeed seeds every live stream in this file.
const liveSeed = 31

// liveModel is the fixture the live-stream tests generate: a few
// thousand transfers, so a run spans many serve slabs.
func liveModel(t *testing.T) gismo.Model {
	t.Helper()
	m, err := gismo.Scaled(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// liveStream starts the fixture's sharded generator.
func liveStream(t *testing.T, m gismo.Model, shards int) *gismo.WorkloadStream {
	t.Helper()
	ws, err := gismo.NewStreamSeeded(m, liveSeed, shards)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// serveLog runs one serve driver over src with a log writer as the
// Entry sink and returns the md5 of the log plus the run summary.
func serveLog(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, run func(workload.Stream, *gismo.Population, int64, Config, uint64, StreamSinks) (*StreamResult, error)) ([md5.Size]byte, *StreamResult, error) {
	var buf bytes.Buffer
	lw := wmslog.NewWriter(&buf)
	res, err := run(src, pop, horizon, cfg, liveSeed, StreamSinks{Entry: lw.Write})
	if err != nil {
		return [md5.Size]byte{}, nil, err
	}
	if err := lw.Flush(); err != nil {
		return [md5.Size]byte{}, nil, err
	}
	return md5.Sum(buf.Bytes()), res, nil
}

// withinDeadline runs f, failing the test if it has not returned after
// 60 s: a wedged pipeline fails instead of hanging the suite.
func withinDeadline(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("serve run wedged")
	}
}

// checkGoroutines fails the test unless the goroutine count comes back
// to baseline within a bounded moment: the generator's shards observe
// the close at their next ring operation.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines after the run, %d before: the serve goroutine or the generator's shards leaked", got, baseline)
	}
}

// TestRunStreamShardedLogInvariant: the WMS log RunStream serves from a
// live sharded stream is md5-identical to the sequential reference's at
// every shard count, spanning twins included.
func TestRunStreamShardedLogInvariant(t *testing.T) {
	m := liveModel(t)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 2000 // exercise injection
	ref := liveStream(t, m, 1)
	wantSum, want, err := serveLog(ref, ref.Population(), m.Horizon, cfg, referenceRunStream)
	if err != nil {
		t.Fatal(err)
	}
	if want.Injected == 0 {
		t.Fatal("fixture injected nothing; the test would not cover spanning twins")
	}
	if want.Transfers < 4*serveSlab {
		t.Fatalf("fixture of %d transfers spans too few slabs", want.Transfers)
	}
	for _, shards := range []int{1, 3, 8} {
		ws := liveStream(t, m, shards)
		sum, res, err := serveLog(ws, ws.Population(), m.Horizon, cfg, RunStream)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if sum != wantSum {
			t.Errorf("shards=%d: log md5 differs from the reference", shards)
		}
		if *res != *want {
			t.Errorf("shards=%d: result %+v, reference %+v", shards, *res, *want)
		}
	}
}

// TestLineMatchesEntry: the two log sinks carry one log. In a run with
// both, every line the Line sink is handed — spanning twins included —
// is wmslog.AppendEntry of the entry the Entry sink is handed next for
// the same record, stamped with that entry's timestamp, at any
// GOMAXPROCS.
func TestLineMatchesEntry(t *testing.T) {
	m := liveModel(t)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 20_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		ws := liveStream(t, m, 4)
		var (
			line           []byte
			stamp          time.Time
			lines, entries int
			twins          int
		)
		res, err := RunStream(ws, ws.Population(), m.Horizon, cfg, liveSeed, StreamSinks{
			Line: func(ts time.Time, l []byte) error {
				line, stamp = append(line[:0], l...), ts
				lines++
				return nil
			},
			Entry: func(e *wmslog.Entry) error {
				entries++
				if lines != entries {
					return fmt.Errorf("entry %d after %d lines", entries, lines)
				}
				if want := wmslog.AppendEntry(nil, e); !bytes.Equal(line, want) {
					return fmt.Errorf("record %d:\nline:  %q\nentry: %q", entries, line, want)
				}
				if !stamp.Equal(e.Timestamp) {
					return fmt.Errorf("record %d: line stamped %v, entry %v", entries, stamp, e.Timestamp)
				}
				if e.Duration > m.Horizon {
					twins++
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if twins == 0 || twins != res.Injected {
			t.Errorf("GOMAXPROCS=%d: %d spanning twins logged, %d injected; want equal and some", procs, twins, res.Injected)
		}
		if lines != res.Transfers+res.Injected {
			t.Errorf("GOMAXPROCS=%d: %d lines for %d transfers and %d twins", procs, lines, res.Transfers, res.Injected)
		}
	}
}

// TestRunStreamShardedMatchesSinks pins the Transfer sink's order and
// content, and the Names tables, to the reference.
func TestRunStreamShardedMatchesSinks(t *testing.T) {
	m := liveModel(t)
	cfg := DefaultConfig()
	collect := func(run func(workload.Stream, *gismo.Population, int64, Config, uint64, StreamSinks) (*StreamResult, error)) ([]trace.Transfer, *trace.Names) {
		ws := liveStream(t, m, 4)
		var out []trace.Transfer
		var names *trace.Names
		_, err := run(ws, ws.Population(), m.Horizon, cfg, liveSeed, StreamSinks{
			Transfer: func(tr trace.Transfer) error { out = append(out, tr); return nil },
			Names:    func(n *trace.Names) { names = n },
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, names
	}
	want, wantNames := collect(referenceRunStream)
	got, gotNames := collect(RunStream)
	if len(got) != len(want) {
		t.Fatalf("transfer counts differ: %d vs reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transfer %d differs:\ngot:       %+v\nreference: %+v", i, got[i], want[i])
		}
	}
	if gotNames == nil || !reflect.DeepEqual(gotNames, wantNames) {
		t.Error("name tables differ from the reference")
	}
}

// TestRunStreamShardedValidation: an argument error returns
// ErrBadConfig and still closes the live stream it was handed — no
// generator shard outlives the call.
func TestRunStreamShardedValidation(t *testing.T) {
	m := liveModel(t)
	badCfg := DefaultConfig()
	badCfg.SpanningPerMillion = -1
	for _, c := range []struct {
		name    string
		cfg     Config
		nilPop  bool
		horizon int64
	}{
		{"zero horizon", DefaultConfig(), false, 0},
		{"nil population", DefaultConfig(), true, m.Horizon},
		{"bad config", badCfg, false, m.Horizon},
	} {
		baseline := runtime.NumGoroutine()
		ws := liveStream(t, m, 4)
		pop := ws.Population()
		if c.nilPop {
			pop = nil
		}
		if _, err := RunStream(ws, pop, c.horizon, c.cfg, liveSeed, StreamSinks{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
		}
		checkGoroutines(t, baseline)
	}
}

// TestRunStreamShardedSkewedLanes: a stream whose events all belong to
// one client — the distribution that starves any per-client partition
// of the serve work — completes and matches the reference byte for
// byte.
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
	wantSum, want, err := serveLog(&syntheticStream{n: n, clients: 1}, pop, n, cfg, referenceRunStream)
	if err != nil {
		t.Fatal(err)
	}
	withinDeadline(t, func() {
		sum, res, err := serveLog(&syntheticStream{n: n, clients: 1}, pop, n, cfg, RunStream)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Transfers != n || *res != *want {
			t.Errorf("result %+v, reference %+v", *res, *want)
		}
		if sum != wantSum {
			t.Error("single-client log md5 differs from the reference")
		}
	})
}

// failAt returns a sink body that fails with boom on its k-th call.
func failAt(k int, boom error) func() error {
	n := 0
	return func() error {
		n++
		if n == k {
			return boom
		}
		return nil
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errWriterFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRunStreamShardedSinkError is the abort contract: a sink that
// fails at the first transfer, in the middle of a slab, or on the last
// call (the final flush, for the Entry sink) makes RunStream return
// that error — with a live sharded stream as the source, whose shards
// must be gone afterwards as well as the serve goroutine. A
// wmslog.Writer whose io.Writer fails part-way is the realistic Entry
// sink failure.
func TestRunStreamShardedSinkError(t *testing.T) {
	m := liveModel(t)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 2000
	ref := liveStream(t, m, 1)
	total, err := referenceRunStream(ref, ref.Population(), m.Horizon, cfg, liveSeed, StreamSinks{Entry: func(*wmslog.Entry) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	entries := total.Transfers + total.Injected
	if total.Transfers < 4*serveSlab {
		t.Fatalf("fixture of %d transfers spans too few slabs", total.Transfers)
	}
	boom := errors.New("sink boom")

	type sinkCase struct {
		name  string
		sinks func() StreamSinks
		want  error
	}
	var cases []sinkCase
	for _, at := range []struct {
		name            string
		transfer, entry int
	}{
		{"first", 1, 1},
		{"mid-slab", serveSlab + serveSlab/2, serveSlab + serveSlab/2},
		{"final-flush", total.Transfers, entries},
	} {
		cases = append(cases,
			sinkCase{"transfer/" + at.name, func() StreamSinks {
				fail := failAt(at.transfer, boom)
				// Entries must still be produced, and dropped without
				// leaking, when the other sink aborts.
				return StreamSinks{
					Transfer: func(trace.Transfer) error { return fail() },
					Entry:    func(*wmslog.Entry) error { return nil },
				}
			}, boom},
			sinkCase{"entry/" + at.name, func() StreamSinks {
				fail := failAt(at.entry, boom)
				return StreamSinks{Entry: func(*wmslog.Entry) error { return fail() }}
			}, boom},
			sinkCase{"line/" + at.name, func() StreamSinks {
				fail := failAt(at.entry, boom)
				return StreamSinks{Line: func(time.Time, []byte) error { return fail() }}
			}, boom})
	}
	cases = append(cases, sinkCase{"entry/writer-fails", func() StreamSinks {
		return StreamSinks{Entry: wmslog.NewWriter(&failingWriter{n: 100_000}).Write}
	}, errWriterFull}, sinkCase{"line/writer-fails", func() StreamSinks {
		lw := wmslog.NewWriter(&failingWriter{n: 100_000})
		return StreamSinks{Line: func(_ time.Time, line []byte) error { return lw.WriteLine(line) }}
	}, errWriterFull})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ws := liveStream(t, m, 4)
			withinDeadline(t, func() {
				if _, err := RunStream(ws, ws.Population(), m.Horizon, cfg, liveSeed, c.sinks()); !errors.Is(err, c.want) {
					t.Errorf("err = %v, want %v", err, c.want)
				}
			})
			checkGoroutines(t, baseline)
		})
	}
}

// violatingStream passes a live stream through until after event at,
// then yields an event that starts before everything served so far.
type violatingStream struct {
	ws *gismo.WorkloadStream
	n  int
	at int
}

func (s *violatingStream) Next() (workload.Event, bool) {
	s.n++
	if s.n == s.at {
		return workload.Event{Start: -1, Duration: 1}, true
	}
	return s.ws.Next()
}

func (s *violatingStream) Close() { s.ws.Close() }

// TestRunStreamShardedContractViolation: a stream that breaks start
// order after the first slab has crossed to the sinks fails exactly as
// the reference does — the sinks see every event before the violation
// and the error names it — and the stream is closed.
func TestRunStreamShardedContractViolation(t *testing.T) {
	m := liveModel(t)
	cfg := DefaultConfig()
	const at = 2*serveSlab + 17
	run := func(ws *gismo.WorkloadStream, driver func(workload.Stream, *gismo.Population, int64, Config, uint64, StreamSinks) (*StreamResult, error)) (int, error) {
		seen := 0
		_, err := driver(&violatingStream{ws: ws, at: at}, ws.Population(), m.Horizon, cfg, liveSeed, StreamSinks{
			Transfer: func(trace.Transfer) error { seen++; return nil },
		})
		return seen, err
	}
	wantSeen, wantErr := run(liveStream(t, m, 4), referenceRunStream)
	if !errors.Is(wantErr, ErrBadConfig) || wantSeen != at-1 {
		t.Fatalf("reference: %d transfers then %v, want %d then a start-order violation", wantSeen, wantErr, at-1)
	}
	baseline := runtime.NumGoroutine()
	ws := liveStream(t, m, 4)
	withinDeadline(t, func() {
		seen, err := run(ws, RunStream)
		if err == nil || err.Error() != wantErr.Error() || seen != wantSeen {
			t.Errorf("%d transfers then %v, reference %d then %v", seen, err, wantSeen, wantErr)
		}
	})
	checkGoroutines(t, baseline)
}

// TestRunStreamShardedMemoryBounded: a long run from a live sharded
// stream holds a live heap bounded by the pipeline's occupancy — the
// generator's and the serve stage's slab rings, and the entries of
// transfers still active — not one that grows with the transfer count:
// slabs must cycle back through both recycle rings.
func TestRunStreamShardedMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement in -short mode")
	}
	m, err := gismo.Scaled(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	m.BaseArrivalRate *= 70
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	ws := liveStream(t, m, 4)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	served := 0
	res, err := RunStream(ws, ws.Population(), m.Horizon, cfg, liveSeed, StreamSinks{
		Entry: func(e *wmslog.Entry) error { served++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Transfers != served || served < 400_000 {
		t.Fatalf("served %d entries of %d transfers, want ≥ 400k", served, res.Transfers)
	}

	// Materializing the entries would cost ~100 MB; the pipeline needs
	// its rings and the reorder buffer. Allow a generous 24 MB for noise.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const limit = 24 << 20
	if growth > limit {
		t.Errorf("live heap grew %d bytes during the run, want < %d", growth, limit)
	}
}
