package main

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/gismo"
)

func TestParsePair(t *testing.T) {
	a, b, err := parsePair("0.3:1.5", "churn")
	if err != nil || a != 0.3 || b != 1.5 {
		t.Fatalf("got %v %v %v", a, b, err)
	}
	for _, bad := range []string{"", "0.3", "x:1", "1:y"} {
		if _, _, err := parsePair(bad, "churn"); err == nil {
			t.Errorf("parsePair(%q) accepted", bad)
		}
	}
}

func TestParseFlash(t *testing.T) {
	fc, err := parseFlash("300:600:100")
	if err != nil {
		t.Fatal(err)
	}
	if fc.At != 300 || fc.Duration != 600 || fc.Sessions != 100 {
		t.Fatalf("parsed %+v", fc)
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "a:2:3"} {
		if _, err := parseFlash(bad); err == nil {
			t.Errorf("parseFlash(%q) accepted", bad)
		}
	}
}

// TestSpecSeedMatchesGenerateSeeded: one -seed means one workload in
// every command — the untransformed stream lsmload offers is exactly
// the request sequence GenerateSeeded (and so lsmgen) produces for the
// same model and seed.
func TestSpecSeedMatchesGenerateSeeded(t *testing.T) {
	sp := spec{Scale: 6000, Days: 1, Hours: 1, Seed: 5, Shards: 2, Rate: 0.05, NoRamp: true}
	offered, m, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, sp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(offered) == 0 || !slices.Equal(offered, w.Requests) {
		t.Fatalf("lsmload offers %d events, GenerateSeeded %d requests, or they differ", len(offered), len(w.Requests))
	}
}

// TestSpecOfferedEventsDeterministicAndCapped: the -check contract
// rests on the spec regenerating the identical event prefix.
func TestSpecOfferedEventsDeterministicAndCapped(t *testing.T) {
	sp := spec{
		Scale: 6000, Days: 1, Hours: 1, Seed: 5, Shards: 2,
		Rate: 0.05, NoRamp: true, ScenarioSeed: 3,
		Thin: 0.9, Flash: []string{"100:400:20"},
	}
	a, m, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	if m.Horizon != 3600 {
		t.Fatalf("hours override ignored: horizon %d", m.Horizon)
	}
	b, _, err := sp.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("regeneration drift: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	// Shard count must not change the offered sequence.
	sp2 := sp
	sp2.Shards = 5
	c, _, err := sp2.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(c) {
		t.Fatalf("shard count changed the workload: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("shard count changed event %d", i)
		}
	}

	capped := sp
	capped.MaxTransfers = 7
	d, _, err := capped.offeredEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 7 {
		t.Fatalf("cap ignored: %d events", len(d))
	}
	for i := range d {
		if d[i] != a[i] {
			t.Fatalf("capped prefix diverges at %d", i)
		}
	}
}

// TestSpecSurvivesMetaRoundTrip: what -meta writes, -check must read
// back into the same spec.
func TestSpecSurvivesMetaRoundTrip(t *testing.T) {
	mf := metaFile{
		Spec: spec{
			Scale: 692, Days: 1, Hours: 2, Seed: 11, Shards: 4,
			Rate: 0.05, NoRamp: true, MaxTransfers: 100, ScenarioSeed: 9,
			Thin: 0.8, Churn: "0.3:1.5", SpeedUp: 2, Warp: "0.5:86400",
			Flash: []string{"600:900:2000", "1800:300:50"},
		},
		BeginUnixNano: 123456789,
		Origin:        42,
		Compression:   600,
		Attempted:     99,
		Completed:     99,
	}
	data, err := json.Marshal(&mf)
	if err != nil {
		t.Fatal(err)
	}
	var back metaFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec.Scale != mf.Spec.Scale || back.Spec.Seed != mf.Spec.Seed ||
		back.Spec.Thin != mf.Spec.Thin || back.Spec.Churn != mf.Spec.Churn ||
		len(back.Spec.Flash) != 2 || back.Origin != 42 || back.Compression != 600 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestSpecTransformValidation: bad scenario specs surface as errors,
// not silent no-ops.
func TestSpecTransformValidation(t *testing.T) {
	bad := []spec{
		{Scale: 6000, Days: 1, Thin: 1.5},
		{Scale: 6000, Days: 1, Churn: "nonsense"},
		{Scale: 6000, Days: 1, Warp: "2:-1"},
		{Scale: 6000, Days: 1, Flash: []string{"1:2"}},
	}
	for i, sp := range bad {
		m, err := sp.model()
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		if _, err := sp.transform(m); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
