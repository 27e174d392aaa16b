// Streaming-pipeline benchmarks: sequential versus sharded generation
// and the streamed serving pass. `make bench` runs these and renders
// the results as BENCH_streaming.json (ns/op, bytes/op), the repo's
// perf trajectory for the event-stream core.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// benchStreamModel is a dense mid-size fixture: a small population
// (~7k clients, so population setup does not drown the measurement)
// under a paper-density arrival stream (~100k sessions over 3 days), so
// the timed work is dominated by what sharding parallelizes — session
// expansion and the ordered merge.
func benchStreamModel(b *testing.B) gismo.Model {
	b.Helper()
	m, err := gismo.Scaled(100, 3)
	if err != nil {
		b.Fatal(err)
	}
	m.BaseArrivalRate *= 60
	return m
}

func benchGenerate(b *testing.B, shards int) {
	m := benchStreamModel(b)
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		ws, err := gismo.NewStream(m, benchSeed, shards)
		if err != nil {
			b.Fatal(err)
		}
		events = 0
		for {
			_, ok := ws.Next()
			if !ok {
				break
			}
			events++
		}
		ws.Close()
	}
	b.ReportMetric(float64(events), "events")
}

func BenchmarkStreamingGenerateSequential(b *testing.B) { benchGenerate(b, 1) }
func BenchmarkStreamingGenerateShards2(b *testing.B)    { benchGenerate(b, 2) }
func BenchmarkStreamingGenerateShards4(b *testing.B)    { benchGenerate(b, 4) }
func BenchmarkStreamingGenerateShards8(b *testing.B)    { benchGenerate(b, 8) }

// BenchmarkStreamingGenerateMaterialized drains the stream into a
// request slice (what GenerateSeeded does), for the memory
// contrast with the pure streaming pass above.
func BenchmarkStreamingGenerateMaterialized(b *testing.B) {
	m := benchStreamModel(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gismo.GenerateSeeded(m, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingServe times the full streamed pipeline: 8-shard
// generation into the sequential streaming simulator with a counting
// entry sink, so the whole entry/reorder path stays hot.
func BenchmarkStreamingServe(b *testing.B) {
	m := benchStreamModel(b)
	cfg := simulate.DefaultConfig()
	sinks := simulate.StreamSinks{Entry: func(e *wmslog.Entry) error { return nil }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws, err := gismo.NewStream(m, benchSeed, 8)
		if err != nil {
			b.Fatal(err)
		}
		res, err := simulate.RunStream(ws, ws.Population(), m.Horizon, cfg, benchSeed, sinks)
		ws.Close()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Transfers), "transfers")
		}
	}
}

// benchServeSharded times the parallel serve path at a fixed lane
// count over the same fixture as BenchmarkStreamingServe — the
// ISSUE 4 acceptance benchmark.
func benchServeSharded(b *testing.B, lanes int) {
	m := benchStreamModel(b)
	cfg := simulate.DefaultConfig()
	sinks := simulate.StreamSinks{Entry: func(e *wmslog.Entry) error { return nil }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws, err := gismo.NewStream(m, benchSeed, 8)
		if err != nil {
			b.Fatal(err)
		}
		res, err := simulate.RunStreamSharded(ws, ws.Population(), m.Horizon, cfg, benchSeed, lanes, sinks)
		ws.Close()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Transfers), "transfers")
		}
	}
}

func BenchmarkStreamingServeSharded1(b *testing.B) { benchServeSharded(b, 1) }
func BenchmarkStreamingServeSharded4(b *testing.B) { benchServeSharded(b, 4) }
func BenchmarkStreamingServeSharded8(b *testing.B) { benchServeSharded(b, 8) }

// benchRunStreamed times the whole pipeline end to end —
// core.RunStreamed: sharded generation fused into the sharded serve
// dispatcher (one serve lane per generator shard) plus the online
// measurement layer — over the same fixture as the component benches.
// This is the number the generate-front-half work moves: generation,
// merge, dispatch, serve and measurement all overlap.
func benchRunStreamed(b *testing.B, shards int) {
	cfg := core.Config{
		Model:          benchStreamModel(b),
		Server:         simulate.DefaultConfig(),
		SessionTimeout: sessions.DefaultTimeout,
		Seed:           benchSeed,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := core.RunStreamed(cfg, shards)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Served.Transfers), "transfers")
		}
	}
}

func BenchmarkRunStreamedSequential(b *testing.B) { benchRunStreamed(b, 1) }
func BenchmarkRunStreamedShards4(b *testing.B)    { benchRunStreamed(b, 4) }
func BenchmarkRunStreamedShards8(b *testing.B)    { benchRunStreamed(b, 8) }

// genLogsClients is the client count of the repo benchmark's gen_logs
// workload (lsmgen -scale 2): the table size the generator's per-client
// kernels are measured at.
const genLogsClients = 345_944

var benchRankSink int

// BenchmarkZipfRankOfU measures the interest-law inversion every
// generated session pays once: counter-mode uniform variates (the
// generator's own access pattern — no locality between draws) through
// dist.Zipf.RankOfU over the gen_logs table.
func BenchmarkZipfRankOfU(b *testing.B) {
	z, err := dist.NewZipf(0.4704, genLogsClients)
	if err != nil {
		b.Fatal(err)
	}
	total := z.Total()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := float64(dist.Mix64(uint64(benchSeed), uint64(i))>>11) / (1 << 53) * total
		benchRankSink += z.RankOfU(u)
	}
}

// BenchmarkPopulation measures the population build — placement,
// access class, environment, and the two id strings per client — at
// the gen_logs size: the serial prologue NewStream overlaps with the
// arrival thinning.
func BenchmarkPopulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(dist.NewSplitMix64(uint64(benchSeed)))
		pop, err := gismo.NewPopulation(genLogsClients, topology.DefaultConfig(), rng)
		if err != nil {
			b.Fatal(err)
		}
		if pop.Size() != genLogsClients {
			b.Fatalf("population of %d, want %d", pop.Size(), genLogsClients)
		}
	}
}

// benchEntry is a representative serve-path log entry for the encoder
// benchmarks.
func benchEntry() *wmslog.Entry {
	return &wmslog.Entry{
		Timestamp:    wmslog.TraceEpoch.Add(987654 * time.Second),
		ClientIP:     "200.131.17.42",
		PlayerID:     "player-000421377",
		ClientOS:     "Windows 98",
		ClientCPU:    "Pentium III",
		URIStem:      "/live/feed1",
		Duration:     1742,
		Bytes:        23953750,
		AvgBandwidth: 110000,
		PacketsLost:  3,
		ServerCPU:    4.37,
		Referer:      "http://show.example.br/aovivo",
		Status:       200,
		ASNumber:     1916,
		Country:      "BR",
	}
}

// BenchmarkStreamingEncodeEntry measures the zero-alloc line encoder
// the whole log path rides on (wmslog.AppendEntry).
func BenchmarkStreamingEncodeEntry(b *testing.B) {
	e := benchEntry()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = wmslog.AppendEntry(buf[:0], e)
	}
	if len(buf) == 0 {
		b.Fatal("empty encoding")
	}
}

// BenchmarkStreamingParseEntry measures the ParseAppend fast path over
// the canonical line AppendEntry emits.
func BenchmarkStreamingParseEntry(b *testing.B) {
	line := wmslog.AppendEntry(nil, benchEntry())
	var e wmslog.Entry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wmslog.ParseAppend(&e, line); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLog caches the rendered log fixture for the codec benchmarks:
// the bench model's full serve-path log (~110k entries) in canonical
// text and framed binary form, built once per process. Only the
// pointer-free byte renderings are kept — a cached entry slice would
// sit in the live set and be rescanned by every GC cycle the
// benchmarks' own churn triggers, charging fixture bookkeeping to the
// parser under test.
var benchLog struct {
	once    sync.Once
	err     error
	entries int
	text    []byte
	binary  []byte
}

func benchLogFixture(b *testing.B) (text, bin []byte, entries int) {
	b.Helper()
	benchLog.once.Do(func() {
		benchLog.err = buildBenchLog()
	})
	if benchLog.err != nil {
		b.Fatal(benchLog.err)
	}
	return benchLog.text, benchLog.binary, benchLog.entries
}

func buildBenchLog() error {
	m, err := gismo.Scaled(100, 3)
	if err != nil {
		return err
	}
	m.BaseArrivalRate *= 60
	ws, err := gismo.NewStream(m, benchSeed, 8)
	if err != nil {
		return err
	}
	defer ws.Close()
	var text, bin bytes.Buffer
	tw := wmslog.NewWriter(&text)
	bw := wmslog.NewBinaryWriter(&bin)
	n := 0
	_, err = simulate.RunStream(ws, ws.Population(), m.Horizon, simulate.DefaultConfig(), benchSeed, simulate.StreamSinks{
		Entry: func(e *wmslog.Entry) error {
			n++
			if err := tw.Write(e); err != nil {
				return err
			}
			return bw.Write(e)
		},
	})
	if err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	benchLog.entries = n
	benchLog.text = text.Bytes()
	benchLog.binary = bin.Bytes()
	return nil
}

// benchParseLog drains one rendering of the fixture log through the
// auto-detecting Parser and checks the entry count.
func benchParseLog(b *testing.B, data []byte, want int) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := wmslog.NewParser(bytes.NewReader(data))
		got := 0
		for {
			_, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got++
		}
		if got != want {
			b.Fatalf("parsed %d entries, want %d", got, want)
		}
	}
}

// BenchmarkStreamingParseTextLog re-parses the full canonical text log
// — the harvest-analysis baseline the binary fast path is gated
// against.
func BenchmarkStreamingParseTextLog(b *testing.B) {
	text, _, entries := benchLogFixture(b)
	benchParseLog(b, text, entries)
}

// BenchmarkStreamingParseBinaryLog re-parses the same log in the
// framed binary format (same Parser, detected by magic bytes).
func BenchmarkStreamingParseBinaryLog(b *testing.B) {
	_, bin, entries := benchLogFixture(b)
	benchParseLog(b, bin, entries)
}

// BenchmarkStreamingEncodeBinaryLog frames every fixture entry through
// a BinaryWriter (dictionary coding included) — the serve-path cost of
// -log-format binary.
func BenchmarkStreamingEncodeBinaryLog(b *testing.B) {
	_, bin, n := benchLogFixture(b)
	entries, _, err := wmslog.ReadAll(bytes.NewReader(bin), false)
	if err != nil {
		b.Fatal(err)
	}
	if len(entries) != n {
		b.Fatalf("fixture decode: %d entries, want %d", len(entries), n)
	}
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw := wmslog.NewBinaryWriter(io.Discard)
		for _, e := range entries {
			if err := bw.Write(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamingBenchFixture keeps the bench fixture honest: the stream
// must be non-trivial and shard-invariant at bench scale.
func TestStreamingBenchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("bench fixture validation")
	}
	m, err := gismo.Scaled(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.BaseArrivalRate *= 60
	counts := map[int]int{}
	for _, shards := range []int{1, 4} {
		ws, err := gismo.NewStream(m, benchSeed, shards)
		if err != nil {
			t.Fatal(err)
		}
		counts[shards] = len(workload.Drain(ws, 0))
		ws.Close()
	}
	if counts[1] < 10_000 {
		t.Errorf("bench fixture too small: %d events", counts[1])
	}
	if counts[1] != counts[4] {
		t.Errorf("bench fixture not shard-invariant: %v", counts)
	}
	fmt.Println("bench fixture events:", counts[1])
}
