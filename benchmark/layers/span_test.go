package layers

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		{ID: 1, Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{ID: 2, Name: "b", StartNS: 30, EndNS: 70, Parent: 0}, // overlaps a: union 10..70
		{ID: 3, Name: "a", StartNS: 35, EndNS: 45, Parent: 2},
		{ID: 4, Name: "sink", StartNS: 20, EndNS: 60, Parent: 2, BusyNS: 25, Calls: 5},
	}
	rows, wall := SelfTimes(spans)
	if wall != 100 {
		t.Fatalf("wall %d, want 100", wall)
	}
	got := map[string]SelfRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	want := map[string]SelfRow{
		"root": {Name: "root", Calls: 1, SelfNS: 40}, // 100 minus the 60 its children cover
		"a":    {Name: "a", Calls: 2, SelfNS: 40},    // 30 + 10
		"b":    {Name: "b", Calls: 1, SelfNS: 30},    // 40 minus the nested a; the aggregate covers nothing
		"sink": {Name: "sink", Calls: 5, SelfNS: 25},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if share, wall := Residual(spans); share != 0.4 || wall != 100 {
		t.Errorf("residual share %v of wall %v, want 0.4 of 100ns", share, wall)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var off *Tracer
	id := off.Begin("x", -1)
	off.End(id)
	off.Aggregate("y", id, time.Now(), time.Now(), time.Second, 3)
	if spans := off.Spans(); spans != nil {
		t.Errorf("a nil tracer recorded %v", spans)
	}

	on := NewTracer("w")
	root := on.Begin("root", -1)
	on.End(on.Begin("child", root))
	on.End(root)
	spans := on.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Workload != "w" {
		t.Errorf("unexpected spans %+v", spans)
	}
	if spans[0].EndNS < spans[1].EndNS || spans[1].StartNS < spans[0].StartNS {
		t.Errorf("child %+v does not nest in root %+v", spans[1], spans[0])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("Quantile sorted its argument in place")
	}
}

func TestTakeRoundCycles(t *testing.T) {
	sessions := []LiveSession{{URIs: []string{"a", "b"}}, {URIs: []string{"c"}}}
	round, cursor := TakeRound(sessions, 1, 4)
	if len(round) != 3 || cursor != 4 {
		t.Errorf("got %d sessions and cursor %d, want 3 and 4", len(round), cursor)
	}
}
