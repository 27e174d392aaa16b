package simulate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/gismo"
	"repro/internal/heapx"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// heapKey is an entry of the reorder buffer RunStream kept before the
// radix queue: a binary heap over (end, admission order), each entry
// naming its record's slot.
type heapKey struct {
	end  int64
	seq  int64
	slot int32
}

// referenceHeapRun serves events as RunStream does and releases their
// log records through that binary heap, rendering each with the
// emitter's own release: the log RunStream wrote before its reorder
// buffer became a radix queue.
func referenceHeapRun(events []workload.Event, pop *gismo.Population, horizon int64, cfg Config, seed uint64, sinks StreamSinks) error {
	em, err := newEmitter(pop, sinks)
	if err != nil {
		return err
	}
	es := newEventServer(&cfg, pop, horizon, seed, nil)
	adm := newAdmission(pop, nil)
	h := heapx.New(func(a, b *heapKey) bool {
		if a.end != b.end {
			return a.end < b.end
		}
		return a.seq < b.seq
	})
	var slots []logRecord
	push := func(r logRecord) {
		slots = append(slots, r)
		h.Push(heapKey{end: r.end, seq: int64(len(slots)), slot: int32(len(slots) - 1)})
	}
	flush := func(start int64, all bool) error {
		for h.Len() > 0 && (all || h.Peek().end <= start) {
			if err := em.release(&slots[h.Pop().slot]); err != nil {
				return err
			}
		}
		return nil
	}
	var sv served
	for _, ev := range events {
		conc, ok := adm.admit(ev)
		if !ok {
			return adm.violation(ev)
		}
		es.serve(ev, conc, &sv)
		if err := flush(sv.start, false); err != nil {
			return err
		}
		push(sv.rec)
		if sv.span > 0 {
			twin := sv.rec
			twin.duration, twin.bytes = sv.span, sv.span*1000
			push(twin)
		}
	}
	return flush(0, true)
}

// reorderStream is a hand-made event stream of the shapes a generator
// never makes and the reorder buffer must still order: runs of equal
// starts with equal durations (tied ends), ends tied across different
// starts, and — with degenerate — Duration 0 and negative durations,
// whose records end at or before the start that releases them.
func reorderStream(n int, degenerate bool, clients int) []workload.Event {
	durations := []int64{1, 2, 3, 5, 5, 30, 300}
	if degenerate {
		durations = append(durations, 0, 0, -1, -7)
	}
	rng := rand.New(rand.NewPCG(41, 0))
	events := make([]workload.Event, n)
	var start int64
	for i := range events {
		if rng.IntN(3) == 0 {
			start += int64(rng.IntN(4))
		}
		events[i] = workload.Event{
			Session:  i / 4,
			Seq:      i % 4,
			Client:   rng.IntN(clients),
			Object:   rng.IntN(3),
			Start:    start,
			Duration: durations[rng.IntN(len(durations))],
		}
	}
	return events
}

// TestRunStreamMatchesHeapReference: over hand-made streams with tied
// ends, zero and negative durations and spanning twins, RunStream's
// Line and Entry sinks carry the bytes the binary-heap reorder buffer
// released, in its order — and where the Line sink refuses a negative
// duration, both fail on the same record after the same lines.
func TestRunStreamMatchesHeapReference(t *testing.T) {
	pop, err := gismo.NewPopulation(200, gismo.Default().Topology, rand.New(rand.NewPCG(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 100_000 // a twin for one record in ten
	const horizon = 86400
	lineSinks := func(buf *bytes.Buffer) StreamSinks {
		return StreamSinks{Line: func(_ time.Time, line []byte) error {
			buf.Write(line)
			buf.WriteByte('\n')
			return nil
		}}
	}
	entrySinks := func(buf *bytes.Buffer) StreamSinks {
		return StreamSinks{Entry: func(e *wmslog.Entry) error {
			buf.Write(wmslog.AppendEntry(nil, e))
			buf.WriteByte('\n')
			return nil
		}}
	}
	for _, tc := range []struct {
		name       string
		degenerate bool
		sinks      func(*bytes.Buffer) StreamSinks
		wantErr    bool
	}{
		{"line/ties", false, lineSinks, false},
		{"entry/ties", false, entrySinks, false},
		{"entry/degenerate", true, entrySinks, false},
		{"line/degenerate", true, lineSinks, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := reorderStream(4000, tc.degenerate, pop.Size())
			var got, want bytes.Buffer
			_, gotErr := RunStream(workload.NewSliceStream(events), pop, horizon, cfg, 7, tc.sinks(&got))
			wantErr := referenceHeapRun(events, pop, horizon, cfg, 7, tc.sinks(&want))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("RunStream error %v, reference %v", gotErr, wantErr)
			}
			if (gotErr != nil) != tc.wantErr {
				t.Fatalf("error %v; want one: %v", gotErr, tc.wantErr)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("RunStream wrote %d bytes, the heap reference %d; first difference at byte %d",
					got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
			}
			if lines := bytes.Count(got.Bytes(), []byte("\n")); !tc.wantErr && lines <= len(events) {
				t.Fatalf("%d lines for %d events: the fixture injected no twin", lines, len(events))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRunStreamRefusesUnkeyableRecord: a record ending 2³² s or more
// past the run's first start has no reorder key; RunStream refuses it
// with an error instead of releasing it out of order. One ending just
// inside is served.
func TestRunStreamRefusesUnkeyableRecord(t *testing.T) {
	pop, err := gismo.NewPopulation(10, gismo.Default().Topology, rand.New(rand.NewPCG(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	const first = 1000
	for _, tc := range []struct {
		duration int64
		ok       bool
	}{
		{maxKeyPart - first - 1, true},
		{maxKeyPart - first + 2, false},
	} {
		events := []workload.Event{
			{Session: 0, Client: 1, Start: first, Duration: 10},
			{Session: 1, Client: 2, Start: 2 * first, Duration: tc.duration},
		}
		lines := 0
		_, err := RunStream(workload.NewSliceStream(events), pop, 86400, cfg, 1, StreamSinks{
			Line: func(time.Time, []byte) error { lines++; return nil },
		})
		if tc.ok && (err != nil || lines != 2) {
			t.Errorf("duration %d: %v after %d lines, want both served", tc.duration, err, lines)
		}
		if !tc.ok && (!errors.Is(err, ErrBadConfig) || lines != 1) {
			t.Errorf("duration %d: %v after %d lines, want ErrBadConfig after the first", tc.duration, err, lines)
		}
	}
}

// TestPendingRefusesUnkeyableOrder: the 2³²nd record of a run has no
// reorder key either; the buffer refuses it rather than let its order
// wrap into its end. The bound is tested by setting the counter, as no
// test can push that many.
func TestPendingRefusesUnkeyableOrder(t *testing.T) {
	var p pendingRecords
	p.through(0)
	p.seq = maxKeyPart - 1
	if _, err := p.push(&logRecord{end: 5}); err != nil {
		t.Fatalf("record %d: %v", maxKeyPart-1, err)
	}
	if _, err := p.push(&logRecord{end: 5}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("record %d: %v, want ErrBadConfig", maxKeyPart, err)
	}
	if p.queue.Len() != 1 || len(p.slots) != 1 {
		t.Fatalf("a refused record was buffered: %d queued, %d slots", p.queue.Len(), len(p.slots))
	}
}
