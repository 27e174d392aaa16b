package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strconv"
	"testing"

	"repro/internal/dist"
)

// Placement is one client's network placement as the population once
// held it, before it became numbers.
type Placement struct {
	ASIndex int    // index into Model.ASes
	IP      string // dotted-quad synthetic IP
	Country string
}

// place assembles a Placement from the production pieces, the way a log
// writer renders a client of the generator's population.
func place(m *Model, rng *rand.Rand) Placement {
	as, ip := m.PlaceAddr(rng)
	return Placement{ASIndex: as, IP: string(AppendIPv4(nil, ip)), Country: m.ASes[as].Country}
}

// Place is the placement draw as it was before the population became a
// table — one string per client — kept as the oracle PlaceAddr and
// AppendIPv4 are held to.
func (m *Model) Place(rng *rand.Rand) Placement {
	i := m.alias.DrawV2(rng)
	as := m.ASes[i]
	host := rng.Uint32() & 0xFFFF // host bits within the AS /16 block
	ip := as.ipBase | host
	return Placement{
		ASIndex: i,
		IP:      formatIPv4(ip),
		Country: as.Country,
	}
}

// formatIPv4 is the string-returning dotted-quad renderer Place used.
func formatIPv4(v uint32) string {
	b := make([]byte, 0, len("255.255.255.255"))
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(v>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return string(b)
}

// TestPlaceAddrMatchesPlace: the numeric draw plus AppendIPv4 is the
// old Place, field for field and draw for draw — the two generators
// stay in step, so the draw after each placement is equal too.
func TestPlaceAddrMatchesPlace(t *testing.T) {
	for _, numAS := range []int{1, 3, 1010, MaxAS} {
		cfg := DefaultConfig()
		cfg.NumAS = numAS
		a, b := rand.New(rand.NewPCG(9, uint64(numAS))), rand.New(rand.NewPCG(9, uint64(numAS)))
		ma, err := New(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := New(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20_000; i++ {
			if got, want := place(ma, a), mb.Place(b); got != want {
				t.Fatalf("NumAS %d, placement %d: %+v, want %+v", numAS, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("NumAS %d: generators out of step after placing", numAS)
		}
	}
}

// TestAppendIPv4: the appender prints net.IP's dotted quad on the 0 /
// 255 corners of every octet and keeps the bytes it is handed.
func TestAppendIPv4(t *testing.T) {
	corners := []uint32{0, 1, 9, 10, 99, 100, 254, 255}
	for _, a := range corners {
		for _, b := range corners {
			for _, c := range corners {
				for _, d := range corners {
					v := a<<24 | b<<16 | c<<8 | d
					want := net.IPv4(byte(a), byte(b), byte(c), byte(d)).String()
					if got := string(AppendIPv4(nil, v)); got != want {
						t.Fatalf("AppendIPv4(%#08x) = %q, want %q", v, got, want)
					}
				}
			}
		}
	}
	// Every octet value, in every position.
	for o := uint32(0); o < 256; o++ {
		v := o<<24 | (255-o)<<16 | o<<8 | (o*7)%256
		if got, want := string(AppendIPv4(nil, v)), formatIPv4(v); got != want {
			t.Fatalf("AppendIPv4(%#08x) = %q, want %q", v, got, want)
		}
	}
	if got := string(AppendIPv4([]byte("ip="), 0x0a00ff01)); got != "ip=10.0.255.1" {
		t.Errorf("AppendIPv4 onto a prefix = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	bad := []Config{
		{NumAS: 0, Alpha: 1, Countries: []string{"BR"}, Weights: []float64{1}},
		{NumAS: MaxAS + 1, Alpha: 1, Countries: []string{"BR"}, Weights: []float64{1}},
		{NumAS: 1 << 40, Alpha: 1, Countries: []string{"BR"}, Weights: []float64{1}},
		{NumAS: 10, Alpha: math.NaN(), Countries: []string{"BR"}, Weights: []float64{1}},
		{NumAS: 10, Alpha: math.Inf(1), Countries: []string{"BR"}, Weights: []float64{1}},
		{NumAS: 10, Alpha: 0, Countries: []string{"BR"}, Weights: []float64{1}},
		{NumAS: 10, Alpha: 1, Countries: nil, Weights: nil},
		{NumAS: 10, Alpha: 1, Countries: []string{"BR", "US"}, Weights: []float64{1}},
		{NumAS: 10, Alpha: 1, Countries: []string{"BR"}, Weights: []float64{-1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, rng); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestDefaultConfigMatchesPaperScale(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumAS != 1010 {
		t.Errorf("NumAS = %d, want 1010 (Table 1)", cfg.NumAS)
	}
	if len(cfg.Countries) != 11 {
		t.Errorf("countries = %d, want 11 (Figure 2)", len(cfg.Countries))
	}
	if cfg.Countries[0] != "BR" {
		t.Error("BR must dominate")
	}
}

func TestPlaceProducesValidIPs(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	m, err := New(DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	seenCountry := map[string]bool{}
	for i := 0; i < 5000; i++ {
		p := place(m, rng)
		if p.ASIndex < 0 || p.ASIndex >= len(m.ASes) {
			t.Fatalf("AS index %d out of range", p.ASIndex)
		}
		if net.ParseIP(p.IP) == nil {
			t.Fatalf("invalid IP %q", p.IP)
		}
		if p.Country != m.ASes[p.ASIndex].Country {
			t.Fatal("placement country does not match AS country")
		}
		seenCountry[p.Country] = true
	}
	if !seenCountry["BR"] {
		t.Error("no Brazilian placements in 5000 draws")
	}
}

func TestASPopularityIsZipf(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	cfg := DefaultConfig()
	m, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(m.ASes))
	const draws = 500000
	for i := 0; i < draws; i++ {
		counts[place(m, rng).ASIndex]++
	}
	fit, err := dist.FitZipfCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-cfg.Alpha) > 0.35 {
		t.Errorf("AS popularity alpha = %v, want ~%v", fit.Alpha, cfg.Alpha)
	}
	// Rank-1 AS should dominate: it must hold well over 10% of placements.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/draws < 0.1 {
		t.Errorf("top AS share = %v, want skewed dominance", float64(max)/draws)
	}
}

func TestBrazilDominatesTransfers(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	m, err := New(DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var br, total int
	for i := 0; i < 100000; i++ {
		if place(m, rng).Country == "BR" {
			br++
		}
		total++
	}
	share := float64(br) / float64(total)
	if share < 0.9 {
		t.Errorf("BR share = %v, want >= 0.9 (Figure 2 right)", share)
	}
}

func TestSmallTopology(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	cfg := DefaultConfig()
	cfg.NumAS = 1
	m, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := place(m, rng)
	if p.ASIndex != 0 {
		t.Error("single-AS model must place into AS 0")
	}
	if p.Country != "BR" {
		t.Error("top-ranked AS must be BR")
	}
}

func TestPlacementsDeterministicUnderSeed(t *testing.T) {
	build := func() []Placement {
		rng := rand.New(rand.NewPCG(77, 0))
		m, err := New(DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Placement, 100)
		for i := range out {
			out[i] = place(m, rng)
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFormatIPv4MatchesSprintf: the strconv builders — AppendIPv4 and
// the oracle's formatIPv4 — print the dotted
// quad fmt.Sprintf("%d.%d.%d.%d") printed — every value of every octet
// (the one-, two- and three-digit edges included) against varied
// neighbours, plus seeded random addresses.
func TestFormatIPv4MatchesSprintf(t *testing.T) {
	legacy := func(v uint32) string {
		return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	check := func(v uint32) {
		t.Helper()
		want := legacy(v)
		if got := formatIPv4(v); got != want {
			t.Fatalf("formatIPv4(%#08x) = %q, want %q", v, got, want)
		}
		if got := string(AppendIPv4(nil, v)); got != want {
			t.Fatalf("AppendIPv4(%#08x) = %q, want %q", v, got, want)
		}
	}
	for _, rest := range []uint32{0x00000000, 0xffffffff, 0x0a090a63, 0x6409ff00} {
		for octet := uint32(0); octet < 256; octet++ {
			for shift := 0; shift < 32; shift += 8 {
				check(rest&^(0xff<<shift) | octet<<shift)
			}
		}
	}
	rng := rand.New(rand.NewPCG(16, 0))
	for i := 0; i < 100_000; i++ {
		check(rng.Uint32())
	}
}
