package gismo

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/topology"
)

// TestPopulationAllocations: a population is a row array, one text and
// the topology's few tables — a number of allocations that does not
// depend on the client count, and at most 48 B per client (12 B row,
// 29 B text reserved, the rest size-class rounding and the topology).
func TestPopulationAllocations(t *testing.T) {
	build := func(n int) func() {
		return func() {
			if _, err := NewPopulation(n, topology.DefaultConfig(), rand.New(rand.NewPCG(5, 0))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A collection during the runs allocates a little of its own, more
	// often the larger the population: count with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := testing.AllocsPerRun(5, build(5_000)), testing.AllocsPerRun(5, build(50_000))
	if small != large || large > 32 {
		t.Errorf("%v allocations at 5,000 clients, %v at 50,000; want equal and at most 32", small, large)
	}

	const n = 50_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build(n)()
	runtime.ReadMemStats(&after)
	if perClient := float64(after.TotalAlloc-before.TotalAlloc) / n; perClient > 48 {
		t.Errorf("%.1f B allocated per client, want at most 48", perClient)
	}
}

// TestClientAllocatesNothing: a Client is assembled from substrings and
// table entries.
func TestClientAllocatesNothing(t *testing.T) {
	pop, err := NewPopulation(1_000, topology.DefaultConfig(), rand.New(rand.NewPCG(6, 0)))
	if err != nil {
		t.Fatal(err)
	}
	var sink Client
	i := 0
	if allocs := testing.AllocsPerRun(1_000, func() {
		sink = pop.Client(i % pop.Size())
		i++
	}); allocs != 0 {
		t.Errorf("%v allocations per Client call, want 0", allocs)
	}
	if sink.PlayerID == "" {
		t.Error("empty client")
	}
}
