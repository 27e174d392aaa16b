package gismo

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/internal/topology"
)

// AccessClass is one client access-link tier. The spikes on the right of
// Figure 20 are "client-bound bandwidth values determined primarily by
// client connection speeds (e.g., various modem speeds, DSL, cable
// modem)".
type AccessClass struct {
	Name string
	Bps  int64   // link capacity in bits/second
	Frac float64 // population share
}

// AccessClasses is the early-2002 Brazilian access mix used by the
// default model: dial-up dominates, with growing DSL/cable tails.
var AccessClasses = []AccessClass{
	{Name: "modem-28.8k", Bps: 28800, Frac: 0.18},
	{Name: "modem-33.6k", Bps: 33600, Frac: 0.22},
	{Name: "modem-56k", Bps: 56000, Frac: 0.34},
	{Name: "isdn-128k", Bps: 128000, Frac: 0.08},
	{Name: "dsl-256k", Bps: 256000, Frac: 0.10},
	{Name: "dsl-512k", Bps: 512000, Frac: 0.05},
	{Name: "cable-1m", Bps: 1000000, Frac: 0.03},
}

// clientOSes and clientCPUs populate the "client environment
// specification" log fields.
var clientOSes = []string{
	"Windows 98", "Windows 2000", "Windows ME", "Windows NT 4.0", "Windows XP",
}

var clientCPUs = []string{
	"Pentium II", "Pentium III", "Pentium 4", "Celeron", "AMD K6",
}

// Client is one unique client entity — the paper's GISMO extension
// "required us to introduce clients as unique entities" (Section 6.2).
type Client struct {
	ID        int
	PlayerID  string // logged player identifier
	Placement topology.Placement
	Access    AccessClass
	OS        string
	CPU       string
}

// Population is the generated client population, indexed by dense client
// ID.
type Population struct {
	Clients []Client
}

// NewPopulation places n clients into the topology and assigns each an
// access class and environment.
func NewPopulation(n int, topoCfg topology.Config, rng *rand.Rand) (*Population, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: population size %d", ErrBadModel, n)
	}
	topo, err := topology.New(topoCfg, rng)
	if err != nil {
		return nil, err
	}
	// Cumulative access-class table.
	cum := make([]float64, len(AccessClasses))
	var acc float64
	for i, c := range AccessClasses {
		acc += c.Frac
		cum[i] = acc
	}

	p := &Population{Clients: make([]Client, n)}
	for i := 0; i < n; i++ {
		p.Clients[i] = Client{
			ID:        i,
			PlayerID:  playerID(i),
			Placement: topo.Place(rng),
			Access:    drawAccess(cum, rng),
			OS:        clientOSes[rng.IntN(len(clientOSes))],
			CPU:       clientCPUs[rng.IntN(len(clientCPUs))],
		}
	}
	return p, nil
}

// playerID is client i's logged player identifier, "player-%07d" of a
// non-negative i: zero-padded to seven digits, wider ids kept whole.
func playerID(i int) string {
	const prefix, width = "player-", 7
	b := make([]byte, 0, len(prefix)+width)
	b = append(b, prefix...)
	for pad := 1_000_000; pad > i && pad > 1; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

func drawAccess(cum []float64, rng *rand.Rand) AccessClass {
	u := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if u <= c {
			return AccessClasses[i]
		}
	}
	return AccessClasses[len(AccessClasses)-1]
}

// Size returns the population size.
func (p *Population) Size() int { return len(p.Clients) }
