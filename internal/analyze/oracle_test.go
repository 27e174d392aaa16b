package analyze

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// bruteConcurrency is the per-second reference for Concurrency: count,
// for every second, the intervals that cover it, then derive each report
// field the way the code did before the histogram marginal and the
// integer bin sums — a float sample of every second handed to
// stats.NewECDF, float accumulation in the bins, one
// stats.Autocorrelation call per lag (returned beside the report: ACF
// is an accessor, not a field).
func bruteConcurrency(t *testing.T, intervals []Interval, horizon int64) (*ConcurrencyReport, []float64) {
	t.Helper()
	samples := make([]float64, horizon)
	peak := 0
	for s := int64(0); s < horizon; s++ {
		c := 0
		for _, iv := range intervals {
			end := iv.End
			if end <= iv.Start {
				end = iv.Start + 1 // zero-length activity occupies its second
			}
			if iv.Start <= s && s < end {
				c++
			}
		}
		samples[s] = float64(c)
		peak = max(peak, c)
	}
	binMeans := func(width int64) stats.BinnedSeries {
		var values []float64
		for lo := int64(0); lo < horizon; lo += width {
			hi := min(lo+width, horizon)
			var sum float64
			for s := lo; s < hi; s++ {
				sum += samples[s]
			}
			values = append(values, sum/float64(hi-lo))
		}
		return stats.BinnedSeries{Width: width, Values: values}
	}
	rep := &ConcurrencyReport{
		Marginal: stats.NewECDF(samples),
		Binned:   binMeans(TemporalBin),
		WeekFold: stats.BinnedSeries{Width: TemporalBin},
		Peak:     peak,
	}
	var err error
	if horizon >= 7*86400 {
		if rep.WeekFold, err = rep.Binned.FoldModulo(7 * 86400); err != nil {
			t.Fatal(err)
		}
	}
	if rep.DayFold, err = rep.Binned.FoldModulo(86400); err != nil {
		t.Fatal(err)
	}
	minutes := binMeans(ACFBin).Values
	var acf []float64
	for l := 0; l <= min(MaxACFLagMinutes, len(minutes)-1) && len(minutes) > 1; l++ {
		r, err := stats.Autocorrelation(minutes, l)
		if err != nil {
			t.Fatal(err)
		}
		acf = append(acf, r)
	}
	return rep, acf
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestConcurrencyMatchesPerSecondReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Horizons that are not multiples of either bin width, one past a
	// week so the weekly fold is exercised.
	for _, horizon := range []int64{2*86400 + 1234, 86400 + 59, 7*86400 + 4321} {
		intervals := make([]Interval, 20+rng.Intn(40))
		for i := range intervals {
			start := rng.Int63n(horizon+2000) - 1000 // some begin before 0 or after the horizon
			var length int64
			switch rng.Intn(4) {
			case 0: // zero-length
			case 1:
				length = rng.Int63n(horizon) // long: clipped at the horizon, overlaps many
			default:
				length = rng.Int63n(20000)
			}
			intervals[i] = Interval{Start: start, End: start + length}
		}
		intervals[0] = Interval{Start: horizon - 1, End: horizon} // touches the horizon

		got, err := Concurrency(intervals, horizon)
		if err != nil {
			t.Fatal(err)
		}
		want, wantACF := bruteConcurrency(t, intervals, horizon)

		if got.Peak != want.Peak {
			t.Errorf("horizon %d: Peak = %d, want %d", horizon, got.Peak, want.Peak)
		}
		for name, pair := range map[string][2][]float64{
			"Binned":   {got.Binned.Values, want.Binned.Values},
			"WeekFold": {got.WeekFold.Values, want.WeekFold.Values},
			"DayFold":  {got.DayFold.Values, want.DayFold.Values},
			"ACF":      {got.ACF(), wantACF},
		} {
			if !sameBits(pair[0], pair[1]) {
				t.Errorf("horizon %d: %s differs from the per-second reference (%d vs %d values)", horizon, name, len(pair[0]), len(pair[1]))
			}
		}
		gm, wm := got.Marginal, want.Marginal
		if gm.N() != wm.N() {
			t.Fatalf("horizon %d: marginal N = %d, want %d", horizon, gm.N(), wm.N())
		}
		gc, wc := gm.CDFPoints(), wm.CDFPoints()
		gcc, wcc := gm.CCDFPoints(), wm.CCDFPoints()
		if len(gc) != len(wc) || len(gcc) != len(wcc) {
			t.Fatalf("horizon %d: marginal has %d/%d points, want %d/%d", horizon, len(gc), len(gcc), len(wc), len(wcc))
		}
		for i := range wc {
			if gc[i] != wc[i] || gcc[i] != wcc[i] {
				t.Errorf("horizon %d: marginal point %d = %v / %v, want %v / %v", horizon, i, gc[i], gcc[i], wc[i], wcc[i])
			}
		}
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1} {
			if g, w := gm.Quantile(p), wm.Quantile(p); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("horizon %d: marginal Quantile(%v) = %v, want %v", horizon, p, g, w)
			}
		}
	}
}

// TestACFOnDemand: the Figure 8 series is computed when it is first
// asked for and at no other time, and asking is safe from any number of
// goroutines.
func TestACFOnDemand(t *testing.T) {
	const horizon = 3 * 86400
	rng := rand.New(rand.NewSource(8))
	intervals := make([]Interval, 200)
	for i := range intervals {
		start := rng.Int63n(horizon)
		intervals[i] = Interval{Start: start, End: start + rng.Int63n(7200)}
	}
	rep, err := Concurrency(intervals, horizon)
	if err != nil {
		t.Fatal(err)
	}

	// 16 concurrent first callers: one computation, one slice.
	got := make([][]float64, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = rep.ACF()
		}()
	}
	wg.Wait()
	_, want := bruteConcurrency(t, intervals, horizon)
	if len(want) != MaxACFLagMinutes+1 || !sameBits(got[0], want) {
		t.Fatalf("ACF() differs from the per-lag stats.Autocorrelation oracle (%d vs %d lags)", len(got[0]), len(want))
	}
	for i, acf := range got {
		if &acf[0] != &got[0][0] || len(acf) != len(got[0]) {
			t.Errorf("caller %d got its own slice", i)
		}
	}

	// A constant series has no autocorrelation; so has one too short to
	// have a lag.
	flat, err := Concurrency([]Interval{{Start: 0, End: 7200}}, 7200)
	if err != nil {
		t.Fatal(err)
	}
	if acf := flat.ACF(); acf != nil {
		t.Errorf("constant series: ACF() has %d lags, want nil", len(acf))
	}
	short, err := Concurrency([]Interval{{Start: 0, End: 10}}, 45)
	if err != nil {
		t.Fatal(err)
	}
	if acf := short.ACF(); acf != nil {
		t.Errorf("one-minute series: ACF() has %d lags, want nil", len(acf))
	}

	// A report that is never asked performs no ACF: asking costs exactly
	// the two allocations stats.AutocorrelationFunction makes (the
	// deviations and the result), so Concurrency alone makes neither.
	unasked := testing.AllocsPerRun(10, func() {
		if _, err := Concurrency(intervals, horizon); err != nil {
			t.Fatal(err)
		}
	})
	asked := testing.AllocsPerRun(10, func() {
		rep, err := Concurrency(intervals, horizon)
		if err != nil {
			t.Fatal(err)
		}
		rep.ACF()
	})
	if asked-unasked != 2 {
		t.Errorf("Concurrency makes %v allocations, %v with ACF(): want exactly 2 more", unasked, asked)
	}
}

// oracleDiversity is AnalyzeDiversity as it shipped before the counts
// moved onto integer ids, kept as the reference: a map per tally, IPs
// and countries keyed by their strings, a set of IP strings per AS.
func oracleDiversity(tr *trace.Trace) *Diversity {
	transferPerAS := make(map[uint32]int)
	ipsPerAS := make(map[uint32]map[string]struct{})
	allIPs := make(map[string]struct{})
	countryCount := make(map[string]int)
	objectCount := make(map[uint16]int)
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		transferPerAS[t.AS]++
		objectCount[t.Object]++
		set := ipsPerAS[t.AS]
		if set == nil {
			set = make(map[string]struct{})
			ipsPerAS[t.AS] = set
		}
		set[tr.IPName(t.IP)] = struct{}{}
		allIPs[tr.IPName(t.IP)] = struct{}{}
		countryCount[tr.CountryName(t.Country)]++
	}

	d := &Diversity{NumAS: len(transferPerAS), NumIPs: len(allIPs), CountryShare: make(map[string]float64, len(countryCount))}
	tCounts := make([]int, 0, len(transferPerAS))
	for _, c := range transferPerAS {
		tCounts = append(tCounts, c)
	}
	d.ASTransferShare = stats.RankFrequencies(tCounts)
	ipCounts := make([]int, 0, len(ipsPerAS))
	for _, set := range ipsPerAS {
		ipCounts = append(ipCounts, len(set))
	}
	d.ASIPShare = stats.RankFrequencies(ipCounts)
	total := float64(tr.NumTransfers())
	for c, n := range countryCount {
		d.CountryShare[c] = float64(n) / total
	}
	oCounts := make([]int, 0, len(objectCount))
	for _, c := range objectCount {
		oCounts = append(oCounts, c)
	}
	d.ObjectShare = stats.RankFrequencies(oCounts)
	return d
}

// awkwardPopulation returns a copy of tr in which some IPs turn up
// under a second AS (one of them a 4-byte AS number), some clients
// under a second IP, and one object and one country have lost every
// transfer — with names, and again as bare ids without them.
func awkwardPopulation(t *testing.T, tr *trace.Trace) []*trace.Trace {
	t.Helper()
	ts := slices.Clone(tr.Transfers)
	lastOf := make(map[int32]int) // client → index of its latest transfer so far
	movedIP, movedAS := 0, 0
	for i := range ts {
		if j, ok := lastOf[ts[i].Client]; ok && i%7 == 0 && ts[j].IP != ts[(i+1)%len(ts)].IP {
			ts[i].IP = ts[(i+1)%len(ts)].IP // this client, under somebody else's address
			movedIP++
		}
		if i%11 == 0 {
			ts[i].AS = ts[(i+5)%len(ts)].AS + uint32(i%2)*4_000_000_000 // this IP, under another AS
			movedAS++
		}
		lastOf[ts[i].Client] = i
	}
	if movedIP == 0 || movedAS == 0 {
		t.Fatalf("fixture moved %d IPs and %d ASes", movedIP, movedAS)
	}
	// Drop an object and a country outright, as sanitizing might.
	kept := ts[:0]
	for _, x := range ts {
		if x.Object != 1 && x.Country != ts[0].Country {
			kept = append(kept, x)
		}
	}
	named, err := trace.New(tr.Horizon, kept)
	if err != nil {
		t.Fatal(err)
	}
	named.Names = tr.Names
	bare, err := trace.New(tr.Horizon, kept)
	if err != nil {
		t.Fatal(err)
	}
	return []*trace.Trace{named, bare}
}

// TestDiversityMatchesMapOracle: the flat-array Figure 2 counts equal
// the string-keyed map ones field by field and bit by bit — on the
// served fixture as it is, and with an IP under two ASes, a client
// under two IPs, 4-byte AS numbers and ids the trace no longer uses.
func TestDiversityMatchesMapOracle(t *testing.T) {
	f := getFixture(t)
	if f.tr.Names == nil || len(f.tr.Names.Countries) < 3 || f.tr.DistinctObjects() < 2 {
		t.Fatalf("fixture too plain: names %v, %d objects", f.tr.Names != nil, f.tr.DistinctObjects())
	}
	for i, tr := range append([]*trace.Trace{f.tr}, awkwardPopulation(t, f.tr)...) {
		want := oracleDiversity(tr)
		got, err := AnalyzeDiversity(tr)
		if err != nil {
			t.Fatal(err)
		}
		if pairs := intSum(tr.Census().ASIPs); i > 0 && pairs <= want.NumIPs {
			t.Errorf("trace %d: no IP counts under two ASes (%d IPs, %d AS-IP pairs)", i, want.NumIPs, pairs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: AnalyzeDiversity differs from the map oracle:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func intSum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}
