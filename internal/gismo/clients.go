package gismo

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

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

// clientRow is one client as the population stores it: where its text
// starts, its AS, and indices into the access / OS / CPU tables — 12
// bytes, so serving a transfer reads one row, not a struct of strings.
type clientRow struct {
	text   uint32 // offset of the dotted quad in Population.text
	as     uint16 // index into the topology's ASes
	ipLen  uint8  // the dotted quad is text[text : text+ipLen],
	idLen  uint8  // the player id the idLen bytes after it
	access uint8  // index into AccessClasses
	os     uint8  // index into clientOSes
	cpu    uint8  // index into clientCPUs
}

const (
	// maxClientText bounds one client's share of Population.text: a
	// dotted quad and "player-" with the widest id MaxClients allows.
	maxClientText = len("255.255.255.255") + len("player-") + 10
	// MaxClients is the largest population the rows can number: every
	// text offset fits clientRow.text, and the text's length an int on
	// any platform.
	MaxClients = math.MaxInt32 / maxClientText
	// maxRowTable is the longest table a one-byte row index reaches.
	maxRowTable = math.MaxUint8 + 1
)

// An AS index must fit clientRow.as.
const _ = uint16(topology.MaxAS - 1)

// Population is the generated client population, indexed by dense client
// ID: a row per client over one shared text, every client's dotted quad
// then its player id, back to back. Client assembles the Client value.
type Population struct {
	rows []clientRow
	text string
	topo *topology.Model // AS index → country
}

// NewPopulation places n clients into the topology and assigns each an
// access class and environment.
func NewPopulation(n int, topoCfg topology.Config, rng *rand.Rand) (*Population, error) {
	if n < 1 || n > MaxClients {
		return nil, fmt.Errorf("%w: population size %d, want 1..%d", ErrBadModel, n, MaxClients)
	}
	if len(AccessClasses) > maxRowTable || len(clientOSes) > maxRowTable || len(clientCPUs) > maxRowTable {
		return nil, fmt.Errorf("%w: an access, OS or CPU table of more than %d entries", ErrBadModel, maxRowTable)
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

	p := &Population{rows: make([]clientRow, n), topo: topo}
	var text strings.Builder
	text.Grow(n * (len("255.255.255.255") + len("player-0000000")))
	var scratch [maxClientText]byte
	for i := range p.rows {
		as, ip := topo.PlaceAddr(rng)
		b := topology.AppendIPv4(scratch[:0], ip)
		ipLen := len(b)
		b = appendPlayerID(b, i)
		p.rows[i] = clientRow{
			text:   uint32(text.Len()),
			as:     uint16(as),
			ipLen:  uint8(ipLen),
			idLen:  uint8(len(b) - ipLen),
			access: uint8(drawAccess(cum, rng)),
			os:     uint8(rng.IntN(len(clientOSes))),
			cpu:    uint8(rng.IntN(len(clientCPUs))),
		}
		text.Write(b)
	}
	p.text = text.String()
	return p, nil
}

// Client assembles client i: its IP and player id are substrings of the
// population's text, the rest comes from the package tables, so the
// call allocates nothing.
//
//lsm:hotpath
func (p *Population) Client(i int) Client {
	r := p.rows[i]
	ip := r.text + uint32(r.ipLen)
	return Client{
		ID:       i,
		PlayerID: p.text[ip : ip+uint32(r.idLen)],
		Placement: topology.Placement{
			ASIndex: int(r.as),
			IP:      p.text[r.text:ip],
			Country: p.topo.ASes[r.as].Country,
		},
		Access: AccessClasses[r.access],
		OS:     clientOSes[r.os],
		CPU:    clientCPUs[r.cpu],
	}
}

// appendPlayerID appends client i's logged player identifier,
// "player-%07d" of a non-negative i: zero-padded to seven digits, wider
// ids kept whole.
func appendPlayerID(b []byte, i int) []byte {
	b = append(b, "player-"...)
	for pad := 1_000_000; pad > i && pad > 1; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// drawAccess draws an index into AccessClasses.
func drawAccess(cum []float64, rng *rand.Rand) int {
	u := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if u <= c {
			return i
		}
	}
	return len(cum) - 1
}

// Size returns the population size.
func (p *Population) Size() int { return len(p.rows) }
