package gismo

import (
	"fmt"
	"math"
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

// ClientOSes and ClientCPUs populate the "client environment
// specification" log fields; a ClientRow holds an index into each.
var ClientOSes = []string{
	"Windows 98", "Windows 2000", "Windows ME", "Windows NT 4.0", "Windows XP",
}

var ClientCPUs = []string{
	"Pentium II", "Pentium III", "Pentium 4", "Celeron", "AMD K6",
}

// ClientRow is one unique client entity — the paper's GISMO extension
// "required us to introduce clients as unique entities" (Section 6.2)
// — as numbers: its address, its AS, and indices into the access / OS
// / CPU tables, 12 bytes. The client's log text is rendered from it
// where a line is written: the dotted quad by topology.AppendIPv4 of
// IP, the player id by AppendPlayerID of the client's index, the
// country from the AS.
type ClientRow struct {
	IP     uint32 // synthetic IPv4 address in the AS's block
	AS     uint16 // index into the topology's ASes
	Access uint8  // index into AccessClasses
	OS     uint8  // index into ClientOSes
	CPU    uint8  // index into ClientCPUs
}

const (
	// maxClientText bounds one client's log text: a dotted quad and
	// "player-" with the widest id MaxClients allows.
	maxClientText = len("255.255.255.255") + len("player-") + 10
	// MaxClients is the largest population a run can name: the log
	// text of all its clients stays under 2³¹ bytes, so a table of it
	// (the simulator's Entry-sink names) takes uint32 offsets and its
	// length is an int on any platform.
	MaxClients = math.MaxInt32 / maxClientText
	// maxRowTable is the longest table a one-byte row index reaches.
	maxRowTable = math.MaxUint8 + 1
)

// An AS index must fit ClientRow.AS.
const _ = uint16(topology.MaxAS - 1)

// Population is the generated client population, indexed by dense
// client ID: one ClientRow per client and the topology the rows' AS
// indices point into. It holds no text.
type Population struct {
	rows []ClientRow
	topo *topology.Model // AS index → country
}

// NewPopulation places n clients into the topology and assigns each an
// access class and environment.
func NewPopulation(n int, topoCfg topology.Config, rng *rand.Rand) (*Population, error) {
	if n < 1 || n > MaxClients {
		return nil, fmt.Errorf("%w: population size %d, want 1..%d", ErrBadModel, n, MaxClients)
	}
	if len(AccessClasses) > maxRowTable || len(ClientOSes) > maxRowTable || len(ClientCPUs) > maxRowTable {
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

	p := &Population{rows: make([]ClientRow, n), topo: topo}
	for i := range p.rows {
		as, ip := topo.PlaceAddr(rng)
		p.rows[i] = ClientRow{
			IP:     ip,
			AS:     uint16(as),
			Access: uint8(drawAccess(cum, rng)),
			OS:     uint8(rng.IntN(len(ClientOSes))),
			CPU:    uint8(rng.IntN(len(ClientCPUs))),
		}
	}
	return p, nil
}

// Row returns client i's row.
//
//lsm:hotpath
func (p *Population) Row(i int) ClientRow { return p.rows[i] }

// Topology returns the AS table the rows index: an AS's number and
// country.
func (p *Population) Topology() *topology.Model { return p.topo }

// AppendPlayerID appends client i's logged player identifier,
// "player-%07d" of a non-negative i: zero-padded to seven digits, wider
// ids kept whole.
//
//lsm:hotpath
func AppendPlayerID(b []byte, i int) []byte {
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
