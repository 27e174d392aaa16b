package gismo

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// TestPopulationAllocations: a population is a row array and the
// topology's few tables — a number of allocations that does not depend
// on the client count.
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
}

// TestPopulationAllocationBudget: a population holds no text. Beyond
// what the topology and the access table cost, NewPopulation allocates
// its rows — 12 bytes a client — and nothing else; a per-client string
// arena (29 bytes a client) or a per-client object is over budget.
func TestPopulationAllocationBudget(t *testing.T) {
	if size := unsafe.Sizeof(ClientRow{}); size != 12 {
		t.Fatalf("ClientRow is %d bytes, want 12", size)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The fixed part: the topology, the population header and the
	// cumulative access table, at their size for one client.
	fixed := measure(func() {
		if _, err := NewPopulation(1, topology.DefaultConfig(), rand.New(rand.NewPCG(5, 0))); err != nil {
			t.Fatal(err)
		}
	})
	for _, n := range []int{10_000, 100_000} {
		got := measure(func() {
			if _, err := NewPopulation(n, topology.DefaultConfig(), rand.New(rand.NewPCG(5, 0))); err != nil {
				t.Fatal(err)
			}
		})
		// The row array is one allocation, rounded up to a size class
		// or a whole page.
		if budget := fixed + uint64(12*n) + 8192; got > budget {
			t.Errorf("NewPopulation(%d) allocated %d bytes, budget %d (12 B a client plus %d fixed)", n, got, budget, fixed)
		}
	}
}

// TestClientAllocatesNothing: a client's log text is rendered from its
// row into the caller's buffer — reading the row and appending the
// dotted quad and the player id allocate nothing.
func TestClientAllocatesNothing(t *testing.T) {
	pop, err := NewPopulation(1_000, topology.DefaultConfig(), rand.New(rand.NewPCG(6, 0)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	i := 0
	if allocs := testing.AllocsPerRun(1_000, func() {
		c := i % pop.Size()
		buf = AppendPlayerID(topology.AppendIPv4(buf[:0], pop.Row(c).IP), c)
		i++
	}); allocs != 0 {
		t.Errorf("%v allocations per client rendered, want 0", allocs)
	}
	if !strings.Contains(string(buf), "player-") {
		t.Errorf("rendered %q", buf)
	}
}

// TestClientTextIsLogSafe: the log text rendered from a row is safe by
// construction, which is why a line writer does not check it — the IP
// is four dot-separated decimal octets and the player id "player-" and
// at least seven digits, so neither is empty or holds a space, tab or
// newline. It holds for every client of a population and at the id
// widths' edges.
func TestClientTextIsLogSafe(t *testing.T) {
	digitsAndDots := func(s string) bool {
		return s != "" && strings.Trim(s, "0123456789.") == ""
	}
	checkIP := func(ip string) {
		t.Helper()
		octets := strings.Split(ip, ".")
		if len(octets) != 4 || !digitsAndDots(ip) {
			t.Fatalf("IP %q is not a dotted quad", ip)
		}
		for _, o := range octets {
			if o == "" || len(o) > 3 || (len(o) > 1 && o[0] == '0') {
				t.Fatalf("IP %q has octet %q", ip, o)
			}
		}
	}
	checkPlayer := func(id string) {
		t.Helper()
		digits, ok := strings.CutPrefix(id, "player-")
		if !ok || len(digits) < 7 || strings.Trim(digits, "0123456789") != "" {
			t.Fatalf("player id %q is not \"player-\" and digits", id)
		}
	}
	pop, err := NewPopulation(20_000, topology.DefaultConfig(), rand.New(rand.NewPCG(8, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pop.Size(); i++ {
		checkIP(string(topology.AppendIPv4(nil, pop.Row(i).IP)))
		checkPlayer(string(AppendPlayerID(nil, i)))
	}
	for _, ip := range []uint32{0, 1, 0x0A000001, 0xFFFFFFFF} {
		checkIP(string(topology.AppendIPv4(nil, ip)))
	}
	for _, i := range []int{0, 9_999_999, MaxClients - 1} {
		checkPlayer(string(AppendPlayerID(nil, i)))
	}
}
