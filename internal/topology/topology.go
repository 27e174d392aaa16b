// Package topology synthesizes the client population's network placement:
// Autonomous Systems, IP addresses, and countries.
//
// The paper (Section 3.1, Figure 2) maps 364,184 client IPs onto 1,010
// ASes across 11 countries, with heavily skewed AS "popularity" (both in
// transfers and IP counts) dominated by Brazil. We reproduce that
// structure with a Zipf-weighted AS assignment: each AS draws a weight
// k^(-alpha); clients pick an AS from the weighted table, receive a
// synthetic IP inside the AS's /16-ish block, and inherit the AS's
// country.
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dist"
)

// ErrBadModel reports invalid model parameters.
var ErrBadModel = errors.New("topology: bad model")

// Countries lists the 11 country codes of Figure 2 (right), ordered by
// trace share: Brazil dominates by orders of magnitude.
var Countries = []string{"BR", "US", "AR", "JP", "DE", "CH", "AU", "BE", "BO", "SG", "SV"}

// CountryWeights approximates Figure 2 (right): the BR bar sits near 1,
// the rest fall off over roughly five decades.
var CountryWeights = []float64{
	0.975,   // BR
	0.015,   // US
	0.005,   // AR
	0.002,   // JP
	0.0015,  // DE
	0.0006,  // CH
	0.0004,  // AU
	0.0002,  // BE
	0.0001,  // BO
	0.00005, // SG
	0.00002, // SV
}

// MaxAS is the most ASes a model holds: an AS index fits 16 bits, which
// is what a client row of the generator's population stores.
const MaxAS = 1 << 16

// AS describes one synthetic Autonomous System.
type AS struct {
	Number  int    // synthetic AS number (1-based rank order)
	Country string // ISO-ish country code
	// ipBase is the top 16 bits of the AS's synthetic address block.
	ipBase uint32
}

// Model is a generated AS/country topology from which client placements
// are drawn.
type Model struct {
	ASes  []AS
	alias *dist.Alias // Zipf-weighted AS selector
}

// Config parameterizes the topology model. The zero value is not valid;
// use DefaultConfig.
type Config struct {
	NumAS     int     // number of ASes (paper: 1,010)
	Alpha     float64 // Zipf skew of AS popularity
	Countries []string
	Weights   []float64 // relative country weights, same length as Countries
}

// DefaultConfig mirrors the paper's Table 1 / Figure 2 topology scale.
func DefaultConfig() Config {
	return Config{
		NumAS:     1010,
		Alpha:     1.1, // Figure 2's AS rank-share spans ~6 decades over 3 decades of rank
		Countries: Countries,
		Weights:   CountryWeights,
	}
}

// New builds a topology: ASes are assigned countries by weighted draw and
// popularity weights k^(-alpha) by construction rank.
func New(cfg Config, rng *rand.Rand) (*Model, error) {
	if cfg.NumAS < 1 || cfg.NumAS > MaxAS {
		return nil, fmt.Errorf("%w: NumAS=%d, want 1..%d", ErrBadModel, cfg.NumAS, MaxAS)
	}
	if !(cfg.Alpha > 0) || math.IsInf(cfg.Alpha, 0) {
		return nil, fmt.Errorf("%w: Alpha=%v", ErrBadModel, cfg.Alpha)
	}
	if len(cfg.Countries) == 0 || len(cfg.Countries) != len(cfg.Weights) {
		return nil, fmt.Errorf("%w: %d countries vs %d weights", ErrBadModel, len(cfg.Countries), len(cfg.Weights))
	}
	countryAlias, err := dist.NewAlias(cfg.Weights)
	if err != nil {
		return nil, fmt.Errorf("topology: country weights: %w", err)
	}

	m := &Model{ASes: make([]AS, cfg.NumAS)}
	weights := make([]float64, cfg.NumAS)
	for i := 0; i < cfg.NumAS; i++ {
		country := cfg.Countries[countryAlias.DrawV2(rng)]
		// The top-ranked ASes are Brazilian in the paper's trace; force
		// rank 1-3 to BR so the country histogram keeps its shape even
		// for tiny NumAS.
		if i < 3 {
			country = cfg.Countries[0]
		}
		m.ASes[i] = AS{
			Number:  i + 1,
			Country: country,
			ipBase:  uint32(10+i%200)<<24 | uint32(rng.IntN(256))<<16,
		}
		weights[i] = math.Pow(float64(i+1), -cfg.Alpha)
	}
	alias, err := dist.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("topology: AS weights: %w", err)
	}
	m.alias = alias
	return m, nil
}

// PlaceAddr draws one client's placement as numbers: the index of a
// Zipf-ranked AS and a synthetic address in its block. The caller
// renders the address (AppendIPv4) and reads the country off
// ASes[as] only where it needs them.
func (m *Model) PlaceAddr(rng *rand.Rand) (as int, ip uint32) {
	as = m.alias.DrawV2(rng)
	host := rng.Uint32() & 0xFFFF // host bits within the AS /16 block
	return as, m.ASes[as].ipBase | host
}

// AppendIPv4 appends v as a dotted quad. A log writer renders one per
// generated line, so each octet is one to three digits appended
// directly rather than a strconv call.
//
//lsm:hotpath
func AppendIPv4(b []byte, v uint32) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		o := byte(v >> shift)
		switch {
		case o >= 100:
			b = append(b, '0'+o/100, '0'+o/10%10, '0'+o%10)
		case o >= 10:
			b = append(b, '0'+o/10, '0'+o%10)
		default:
			b = append(b, '0'+o)
		}
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}
