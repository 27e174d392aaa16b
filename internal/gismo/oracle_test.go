package gismo

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strconv"
	"testing"

	"repro/internal/topology"
)

// The population as it was before it became a table — a []Client of
// by-value structs, two strings allocated per client — kept as the
// oracle NewPopulation and Population.Client are held to. The one
// piece that cannot be verbatim is the placement draw: Model.Place
// lives on as the oracle of topology's own tests (which hold PlaceAddr
// to it draw for draw), so referencePlace renders PlaceAddr's address
// through net.IP instead.

// playerID is client i's logged player identifier as a fresh string.
func playerID(i int) string {
	const prefix, width = "player-", 7
	b := make([]byte, 0, len(prefix)+width)
	b = append(b, prefix...)
	for pad := 1_000_000; pad > i && pad > 1; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

func referencePlace(m *topology.Model, rng *rand.Rand) topology.Placement {
	as, ip := m.PlaceAddr(rng)
	return topology.Placement{
		ASIndex: as,
		IP:      net.IPv4(byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)).String(),
		Country: m.ASes[as].Country,
	}
}

func referenceDrawAccess(cum []float64, rng *rand.Rand) AccessClass {
	u := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if u <= c {
			return AccessClasses[i]
		}
	}
	return AccessClasses[len(AccessClasses)-1]
}

func referencePopulation(n int, topoCfg topology.Config, rng *rand.Rand) ([]Client, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: population size %d", ErrBadModel, n)
	}
	topo, err := topology.New(topoCfg, rng)
	if err != nil {
		return nil, err
	}
	cum := make([]float64, len(AccessClasses))
	var acc float64
	for i, c := range AccessClasses {
		acc += c.Frac
		cum[i] = acc
	}
	clients := make([]Client, n)
	for i := 0; i < n; i++ {
		clients[i] = Client{
			ID:        i,
			PlayerID:  playerID(i),
			Placement: referencePlace(topo, rng),
			Access:    referenceDrawAccess(cum, rng),
			OS:        clientOSes[rng.IntN(len(clientOSes))],
			CPU:       clientCPUs[rng.IntN(len(clientCPUs))],
		}
	}
	return clients, nil
}

// samePopulation builds n clients both ways from equal generators and
// holds every field of every client, and the generators' next draw —
// the number of draws consumed — to the reference.
func samePopulation(t *testing.T, n int, cfg topology.Config, seed uint64) {
	t.Helper()
	a, b := rand.New(rand.NewPCG(seed, 24)), rand.New(rand.NewPCG(seed, 24))
	pop, err := NewPopulation(n, cfg, a)
	want, wantErr := referencePopulation(n, cfg, b)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("n=%d NumAS=%d: error %v, reference %v", n, cfg.NumAS, err, wantErr)
	}
	if err != nil {
		return
	}
	if pop.Size() != len(want) {
		t.Fatalf("n=%d: Size() = %d", n, pop.Size())
	}
	for i := range want {
		if got := pop.Client(i); got != want[i] {
			t.Fatalf("n=%d NumAS=%d seed=%d: client %d = %+v, want %+v", n, cfg.NumAS, seed, i, got, want[i])
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("n=%d NumAS=%d seed=%d: generators out of step after the build", n, cfg.NumAS, seed)
	}
}

func TestPopulationMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 200, 100_003} {
		for _, numAS := range []int{1, 3, 1010, topology.MaxAS} {
			cfg := topology.DefaultConfig()
			cfg.NumAS = numAS
			for _, seed := range []uint64{1, 2002, 86021} {
				samePopulation(t, n, cfg, seed)
			}
		}
	}
}

// FuzzPopulationMatchesReference varies what the table's layout
// depends on — the client count (id width, text offsets), the AS count
// (row index width, address blocks) and the AS skew — under any seed.
func FuzzPopulationMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(0), 1.1)
	f.Add(uint64(2002), uint16(200), uint16(1009), 1.1)
	f.Add(uint64(7), uint16(4095), uint16(65535), 0.2)
	f.Add(uint64(9), uint16(33), uint16(2), 8.0)
	f.Fuzz(func(t *testing.T, seed uint64, n, numAS uint16, alpha float64) {
		cfg := topology.DefaultConfig()
		cfg.NumAS = int(numAS) + 1
		cfg.Alpha = alpha // topology.New rejects what it cannot use, on both sides
		samePopulation(t, int(n)%4096+1, cfg, seed)
	})
}

// TestAppendPlayerID holds the appending kernel to fmt's "player-%07d"
// at the padding edges and past the seven-digit width.
func TestAppendPlayerID(t *testing.T) {
	for _, i := range []int{0, 9, 10, 999_999, 1_000_000, 9_999_999, 10_000_000, math.MaxInt32} {
		want := fmt.Sprintf("player-%07d", i)
		if got := string(appendPlayerID(nil, i)); got != want {
			t.Errorf("appendPlayerID(%d) = %q, want %q", i, got, want)
		}
		if got := string(appendPlayerID([]byte("10.0.0.1"), i)); got != "10.0.0.1"+want {
			t.Errorf("appendPlayerID(%d) onto a prefix = %q", i, got)
		}
	}
}

// TestPopulationBounds: what a row cannot number is ErrBadModel before
// anything is allocated, never a wrapped index.
func TestPopulationBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	if _, err := NewPopulation(MaxClients+1, topology.DefaultConfig(), rng); !errors.Is(err, ErrBadModel) {
		t.Errorf("population past MaxClients: %v, want ErrBadModel", err)
	}
	cfg := topology.DefaultConfig()
	cfg.NumAS = topology.MaxAS + 1
	if _, err := NewPopulation(10, cfg, rng); !errors.Is(err, topology.ErrBadModel) {
		t.Errorf("topology past MaxAS: %v, want topology.ErrBadModel", err)
	}
	saved := clientOSes
	defer func() { clientOSes = saved }()
	clientOSes = make([]string, maxRowTable+1)
	if _, err := NewPopulation(10, topology.DefaultConfig(), rng); !errors.Is(err, ErrBadModel) {
		t.Errorf("OS table past a row index: %v, want ErrBadModel", err)
	}
}
