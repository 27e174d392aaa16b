package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyze"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/trace"
)

// characterizeSequential is the oracle for Characterize: the layer
// calls — the figure step's as the trace-walking reference has them —
// composed one after the other on the calling goroutine, returning at
// the first failure: the core's layers, then the figure step's.
func characterizeSequential(tr *trace.Trace, timeout int64, sweep []int64, seed int64) (*Characterization, error) {
	set, err := sessions.Sessionize(tr, timeout)
	if err != nil {
		return nil, err
	}
	client, err := analyze.AnalyzeClientLayer(set)
	if err != nil {
		return nil, fmt.Errorf("client layer: %w", err)
	}
	session, err := analyze.AnalyzeSessionLayer(set)
	if err != nil {
		return nil, fmt.Errorf("session layer: %w", err)
	}
	transfer, err := analyze.AnalyzeTransferLayer(tr)
	if err != nil {
		return nil, fmt.Errorf("transfer layer: %w", err)
	}
	divers, err := analyze.AnalyzeDiversity(tr)
	if err != nil {
		return nil, fmt.Errorf("diversity: %w", err)
	}
	clientFigs, err := referenceClientFigures(tr)
	if err != nil {
		return nil, fmt.Errorf("client layer: %w", err)
	}
	sessionFigs, err := analyze.DescribeSessionLayer(set.Sessionizer(), session)
	if err != nil {
		return nil, fmt.Errorf("session layer: %w", err)
	}
	transferFigs, err := referenceTransferFigures(tr, transfer)
	if err != nil {
		return nil, fmt.Errorf("transfer layer: %w", err)
	}
	if sweep == nil {
		sweep = DefaultTimeoutSweep
	}
	sweepPoints, err := referenceSweep(tr, sweep)
	if err != nil {
		return nil, fmt.Errorf("timeout sweep: %w", err)
	}
	char := &Characterization{
		Horizon:  tr.Horizon,
		Timeout:  timeout,
		Basic:    basicStatsOracle(tr, set),
		Client:   client,
		Session:  session,
		Transfer: transfer,
		Divers:   divers,
		Figures: &FigureData{
			Client:   clientFigs,
			Session:  sessionFigs,
			Transfer: transferFigs,
			Sweep:    sweepPoints,
			Audit:    referenceAudit(tr, auditThreshold),
			Poisson:  BuildPoissonReplica(set, tr.Horizon, client.Interarrivals, seed),
		},
	}
	if bins, err := stats.BinCounts(set.ArrivalTimes(), tr.Horizon, analyze.TemporalBin); err == nil {
		char.ArrivalBins = bins
	}
	return char, nil
}

// basicStatsOracle is basicStats as it shipped before Table 1's counts
// moved onto integer ids, kept as the reference: a pass and a set per
// count.
func basicStatsOracle(tr *trace.Trace, set *sessions.Set) BasicStats {
	ips := make(map[uint32]struct{})
	ases := make(map[uint32]struct{})
	objects := make(map[uint16]struct{})
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		ips[t.IP] = struct{}{}
		ases[t.AS] = struct{}{}
		objects[t.Object] = struct{}{}
	}
	return BasicStats{
		Days:       int(tr.Horizon / 86400),
		Objects:    len(objects),
		ASes:       len(ases),
		IPs:        len(ips),
		Users:      referenceUsers(tr),
		Sessions:   set.Count(),
		Transfers:  tr.NumTransfers(),
		TotalBytes: tr.TotalBytes(),
	}
}

// TestBasicStatsMatchesMapOracle: Table 1 as Observe reads it off its
// one walk (the census, the Sessionizer, its own counts) equals the
// string-keyed sets — on the
// served week and on a copy where IPs recur under other ASes (4-byte AS
// numbers among them), clients under other IPs, and one object id and
// one country id have lost every transfer.
func TestBasicStatsMatchesMapOracle(t *testing.T) {
	week := weekTrace(t)
	ts := slices.Clone(week.Transfers)
	kept := ts[:0]
	for i, x := range ts {
		if i%7 == 0 {
			x.IP = ts[(i+1)%len(ts)].IP
		}
		if i%11 == 0 {
			x.AS = ts[(i+5)%len(ts)].AS + uint32(i%2)*4_000_000_000
		}
		if x.Object != 1 && x.Country != ts[0].Country {
			kept = append(kept, x)
		}
	}
	awkward, err := trace.New(week.Horizon, kept)
	if err != nil {
		t.Fatal(err)
	}
	awkward.Names = week.Names
	if len(week.Names.Countries) < 3 {
		t.Fatalf("fixture has %d countries", len(week.Names.Countries))
	}
	for _, tr := range []*trace.Trace{week, awkward} {
		set, err := sessions.Sessionize(tr, sessions.DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		char, err := Observe(tr, sessions.DefaultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		want := basicStatsOracle(tr, set)
		if got := char.Basic; got != want {
			t.Errorf("Observe's Table 1 = %+v, map oracle %+v", got, want)
		}
		if want.IPs != tr.DistinctIPs() || want.ASes != tr.DistinctAS() || want.Objects != tr.DistinctObjects() {
			t.Errorf("trace counts %d IPs, %d ASes, %d objects; map oracle %+v", tr.DistinctIPs(), tr.DistinctAS(), tr.DistinctObjects(), want)
		}
	}
}

// dump writes every value reachable from v — exported or not, through
// pointers, slices and maps (keys sorted) — one per line under its field
// path, floats as their bit patterns: two values dump to the same text
// exactly when they are equal field by field and bit by bit. sync.Once
// fields are skipped: they record whether an on-demand series was asked
// for, not a result.
func dump(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		dump(b, path, v.Elem())
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(sync.Once{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			dump(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s len %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dump(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		fmt.Fprintf(b, "%s len %d\n", path, len(keys))
		for _, k := range keys {
			dump(b, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s = %016x\n", path, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s = %d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s = %d\n", path, v.Uint())
	case reflect.String:
		fmt.Fprintf(b, "%s = %q\n", path, v.String())
	case reflect.Bool:
		fmt.Fprintf(b, "%s = %t\n", path, v.Bool())
	default:
		panic(fmt.Sprintf("dump: %s has unhandled kind %s", path, v.Kind()))
	}
}

// dumpChar renders a characterization with its on-demand Figure 8
// series included.
func dumpChar(c *Characterization) string {
	var b strings.Builder
	dump(&b, "char", reflect.ValueOf(c))
	dump(&b, "client.ACF()", reflect.ValueOf(c.Client.Concurrency.ACF()))
	dump(&b, "transfer.ACF()", reflect.ValueOf(c.Transfer.Concurrency.ACF()))
	return b.String()
}

// firstDiff names the first line two dumps disagree on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// atGOMAXPROCS runs f at each core count the contract names.
func atGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// weekTrace serves a week-long, two-object workload and returns its
// sanitized trace.
func weekTrace(t *testing.T) *trace.Trace {
	t.Helper()
	m, err := gismo.Scaled(150, 7)
	if err != nil {
		t.Fatal(err)
	}
	clean, _, _ := servedTrace(t, m, simulate.DefaultConfig(), 7)
	if clean.DistinctObjects() < 2 || clean.Horizon < 7*86400 {
		t.Fatalf("fixture has %d object(s) over %d s, want >= 2 over a week", clean.DistinctObjects(), clean.Horizon)
	}
	return clean
}

// TestCharacterizeMatchesSequential: running the layers as concurrent
// tasks changes nothing a caller can see, at any core count. Every
// field of the result, down to the float bits and including the
// on-demand ACF, equals the sequential composition's; and when layers
// fail, every task still runs to its end and the error reported is the
// first in layer order — the one the sequential composition stops at —
// not the first to happen.
func TestCharacterizeMatchesSequential(t *testing.T) {
	week := weekTrace(t)
	oracle, err := characterizeSequential(week, sessions.DefaultTimeout, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := dumpChar(oracle)
	t.Run("result", func(t *testing.T) {
		atGOMAXPROCS(t, func(t *testing.T) {
			got, err := Characterize(week, sessions.DefaultTimeout, nil, 7)
			if err != nil {
				t.Fatal(err)
			}
			if d := dumpChar(got); d != want {
				t.Errorf("Characterize differs from the sequential composition: %s", firstDiff(d, want))
			}
		})
	})

	empty, err := trace.New(86400, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := trace.New(86400, []trace.Transfer{{Client: 1, AS: 1, Start: 10, Duration: 5, Bandwidth: 56000}})
	if err != nil {
		t.Fatal(err)
	}
	badSweep := []int64{1500, 0}
	cases := []struct {
		name   string
		tr     *trace.Trace
		sweep  []int64
		prefix string
	}{
		{"last task alone fails", week, badSweep, "timeout sweep: "},
		{"every layer fails", empty, nil, "client layer: "},
		{"first and last fail", empty, badSweep, "client layer: "},
		{"one transfer", single, badSweep, ""},
	}
	for _, c := range cases {
		t.Run("error/"+c.name, func(t *testing.T) {
			_, wantErr := characterizeSequential(c.tr, sessions.DefaultTimeout, c.sweep, 7)
			if wantErr == nil || !strings.HasPrefix(wantErr.Error(), c.prefix) {
				t.Fatalf("oracle error = %v, want one starting %q", wantErr, c.prefix)
			}
			atGOMAXPROCS(t, func(t *testing.T) {
				for i := 0; i < 20; i++ {
					got, err := Characterize(c.tr, sessions.DefaultTimeout, c.sweep, 7)
					if got != nil || err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("run %d: Characterize = %v, %v; want nil, %v", i, got, err, wantErr)
					}
				}
			})
		})
	}
}
