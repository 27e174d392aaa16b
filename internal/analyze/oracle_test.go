package analyze

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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
			return rep, nil // a constant series: no autocorrelation at any lag
		}
		acf = append(acf, r)
	}
	return rep, acf
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// denseConcurrency is Concurrency as it shipped before the event sweep,
// kept as the reference the brute-force count is too slow for: a
// difference array over every second of the horizon, integrated in
// place, then walked once each for the peak, the marginal histogram and
// the two bin widths.
func denseConcurrency(t *testing.T, intervals []Interval, horizon int64) *ConcurrencyReport {
	t.Helper()
	perSecond := concurrencyPerSecond(intervals, horizon)
	peak := 0
	for _, v := range perSecond {
		peak = max(peak, int(v))
	}
	seconds := make([]int, peak+1)
	for _, v := range perSecond {
		seconds[v]++
	}
	rep := &ConcurrencyReport{
		Marginal: stats.NewECDFCounts(seconds),
		Binned:   binMeanSeries(perSecond, TemporalBin),
		WeekFold: stats.BinnedSeries{Width: TemporalBin},
		Peak:     peak,
		minutes:  binMeanSeries(perSecond, ACFBin).Values,
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
	return rep
}

// concurrencyPerSecond sweeps the intervals with a difference array,
// then integrates it in place.
func concurrencyPerSecond(intervals []Interval, horizon int64) []int32 {
	diff := make([]int32, horizon+1)
	for _, iv := range intervals {
		lo, hi := iv.Start, iv.End
		if hi <= lo {
			hi = lo + 1 // zero-length activity still occupies its second
		}
		if lo < 0 {
			lo = 0
		}
		if hi > horizon {
			hi = horizon
		}
		if lo >= horizon || hi <= 0 || hi <= lo {
			continue
		}
		diff[lo]++
		diff[hi]--
	}
	perSecond := diff[:horizon]
	var run int32
	for s, d := range perSecond {
		run += d
		perSecond[s] = run
	}
	return perSecond
}

// binMeanSeries averages a per-second series into fixed-width bins.
func binMeanSeries(perSecond []int32, width int64) stats.BinnedSeries {
	horizon := int64(len(perSecond))
	n := int((horizon + width - 1) / width)
	values := make([]float64, n)
	for b := 0; b < n; b++ {
		lo := int64(b) * width
		hi := min(lo+width, horizon)
		var sum int64
		for _, v := range perSecond[lo:hi] {
			sum += int64(v)
		}
		values[b] = float64(sum) / float64(hi-lo)
	}
	return stats.BinnedSeries{Width: width, Values: values}
}

// sameConcurrency holds got to want field by field and bit by bit:
// peak, the three binned views, the ACF (wantACF when the caller has an
// independent one, want's own otherwise) and every point and quantile
// of the marginal.
func sameConcurrency(t *testing.T, name string, got, want *ConcurrencyReport, wantACF []float64) {
	t.Helper()
	if wantACF == nil {
		wantACF = want.ACF()
	}
	if got.Peak != want.Peak {
		t.Errorf("%s: Peak = %d, want %d", name, got.Peak, want.Peak)
	}
	for _, s := range []struct {
		field     string
		got, want []float64
	}{
		{"Binned", got.Binned.Values, want.Binned.Values},
		{"WeekFold", got.WeekFold.Values, want.WeekFold.Values},
		{"DayFold", got.DayFold.Values, want.DayFold.Values},
		{"ACF", got.ACF(), wantACF},
	} {
		if !sameBits(s.got, s.want) {
			t.Errorf("%s: %s differs from the per-second reference (%d vs %d values)", name, s.field, len(s.got), len(s.want))
		}
	}
	if got.Binned.Width != want.Binned.Width || got.WeekFold.Width != want.WeekFold.Width || got.DayFold.Width != want.DayFold.Width {
		t.Errorf("%s: bin widths %d/%d/%d, want %d/%d/%d", name, got.Binned.Width, got.WeekFold.Width, got.DayFold.Width,
			want.Binned.Width, want.WeekFold.Width, want.DayFold.Width)
	}
	gm, wm := got.Marginal, want.Marginal
	if gm.N() != wm.N() {
		t.Fatalf("%s: marginal N = %d, want %d", name, gm.N(), wm.N())
	}
	gc, wc := gm.CDFPoints(), wm.CDFPoints()
	gcc, wcc := gm.CCDFPoints(), wm.CCDFPoints()
	if len(gc) != len(wc) || len(gcc) != len(wcc) {
		t.Fatalf("%s: marginal has %d/%d points, want %d/%d", name, len(gc), len(gcc), len(wc), len(wcc))
	}
	for i := range wc {
		if gc[i] != wc[i] || gcc[i] != wcc[i] {
			t.Errorf("%s: marginal point %d = %v / %v, want %v / %v", name, i, gc[i], gcc[i], wc[i], wcc[i])
		}
	}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1} {
		if g, w := gm.Quantile(p), wm.Quantile(p); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: marginal Quantile(%v) = %v, want %v", name, p, g, w)
		}
	}
}

// TestConcurrencyMatchesPerSecondReference: the event sweep reports
// what a walk over every second reports. Small inputs are held to the
// brute-force count (and the dense walk with them, so it can stand in
// where n × horizon is out of the brute force's reach); the rest to the
// dense walk.
func TestConcurrencyMatchesPerSecondReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := func(n int, horizon int64) []Interval {
		intervals := make([]Interval, n)
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
		return intervals
	}
	// short intervals in start order, as a layer hands them over
	sorted := func(n int, horizon int64) []Interval {
		intervals := make([]Interval, n)
		for i := range intervals {
			start := int64(i) * horizon / int64(n)
			intervals[i] = Interval{Start: start, End: start + rng.Int63n(600)}
		}
		return intervals
	}

	type fixture struct {
		name      string
		horizon   int64
		intervals []Interval
		brute     bool
	}
	var cases []fixture
	// Horizons that are not multiples of either bin width, one past a
	// week so the weekly fold is exercised.
	for _, horizon := range []int64{2*86400 + 1234, 86400 + 59, 7*86400 + 4321, 7*86400 + 1} {
		cases = append(cases, fixture{"random", horizon, random(20+rng.Intn(40), horizon), true})
	}
	// Around one bin of either width, and a single second.
	for _, horizon := range []int64{1, 59, 60, 61, 899, 900, 901} {
		cases = append(cases, fixture{"short horizon", horizon, random(1+rng.Intn(300), horizon), true})
	}
	// Past the radix cut-over, unsorted and sorted, n up to the horizon's
	// order (the paper-scale shape).
	for _, n := range []int{767, 768, 10_000, 100_000} {
		cases = append(cases,
			fixture{"unsorted", 2*86400 + 77, random(n, 2*86400+77), false},
			fixture{"start order", 3*86400 + 5, sorted(n, 3*86400+5), false})
	}
	// Thousands of events in one second: a flash crowd that arrives at
	// 5000 and leaves at 9000, among stragglers.
	crowd := random(500, 86400)
	for i := 0; i < 4000; i++ {
		crowd = append(crowd, Interval{Start: 5000, End: 9000})
	}
	cases = append(cases, fixture{"flash crowd", 86400, crowd, false})
	// Everything outside the horizon except one interval.
	outside := []Interval{{Start: -500, End: -1}, {Start: -3, End: -3}, {Start: 4000, End: 5000}, {Start: 3600, End: 3600}, {Start: 1800, End: 1830}}
	for i := 0; i < 1000; i++ {
		outside = append(outside, Interval{Start: 3600 + int64(i), End: 9000})
	}
	cases = append(cases, fixture{"one inside", 3600, outside, true})
	// Bursts with silence between them: the level returns to 0, for
	// minutes and for whole 15-minute bins.
	var bursts []Interval
	for b := int64(0); b < 40; b++ {
		for k := int64(0); k < 1+b%7; k++ {
			bursts = append(bursts, Interval{Start: b*4000 + k, End: b*4000 + 30 + 50*k})
		}
	}
	cases = append(cases, fixture{"bursts", 2 * 86400, bursts, true})

	for _, c := range cases {
		name := fmt.Sprintf("%s, %d intervals over %d s", c.name, len(c.intervals), c.horizon)
		got, err := Concurrency(c.intervals, c.horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dense := denseConcurrency(t, c.intervals, c.horizon)
		sameConcurrency(t, name, got, dense, nil)
		if c.brute {
			want, wantACF := bruteConcurrency(t, c.intervals, c.horizon)
			sameConcurrency(t, name+" (brute force)", got, want, wantACF)
		}
	}
}

// FuzzConcurrencyMatchesPerSecond reads the fuzz input as a horizon of
// at most 10⁵ seconds and a list of intervals — zero-length, ordinary,
// long enough to be clipped, starting before 0 or past the horizon, in
// any order — repeated with a shift past the radix cut-over, and holds
// every field of the report to the brute-force count, bit for bit.
func FuzzConcurrencyMatchesPerSecond(f *testing.F) {
	le := func(horizon uint32, ivs ...[2]uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, horizon)
		for _, iv := range ivs {
			b = binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(b, iv[0]), uint16(iv[1]))
		}
		return b
	}
	f.Add(le(86400, [2]uint32{1000, 0}, [2]uint32{5000, 3 | 600<<2}, [2]uint32{900, 1 | 9000<<2}), uint8(1))
	f.Add(le(59, [2]uint32{1058, 2 | 1<<2}, [2]uint32{0, 2 | 70<<2}), uint8(3))
	f.Add(le(901, [2]uint32{1900, 2 | 30<<2}, [2]uint32{1900, 2 | 30<<2}, [2]uint32{1400, 0}), uint8(200))
	f.Add(le(0), uint8(0))
	f.Add([]byte{7}, uint8(9))

	f.Fuzz(func(t *testing.T, data []byte, repeat uint8) {
		if len(data) < 4 {
			return
		}
		horizon := int64(binary.LittleEndian.Uint32(data)%100_000) + 1
		data = data[4:]
		base := make([]Interval, min(len(data)/6, 512))
		for i := range base {
			start := int64(binary.LittleEndian.Uint32(data[6*i:])%uint32(horizon+2000)) - 1000
			code := int64(binary.LittleEndian.Uint16(data[6*i+4:]))
			var length int64
			switch code & 3 {
			case 0: // zero-length
			case 1:
				length = (code >> 2) * horizon >> 14 // up to the whole horizon
			default:
				length = code >> 2
			}
			base[i] = Interval{Start: start, End: start + length}
		}
		if len(base) == 0 {
			return
		}
		intervals := make([]Interval, 0, len(base)*(int(repeat)%8+1))
		for k := int64(0); k <= int64(repeat)%8; k++ {
			for _, iv := range base {
				intervals = append(intervals, Interval{Start: iv.Start + 7*k, End: iv.End + 11*k})
			}
		}
		// Keep the brute force's n × horizon within a few 10⁶.
		horizon = min(horizon, max(1, 4_000_000/int64(len(intervals))))

		got, err := Concurrency(intervals, horizon)
		if err != nil {
			t.Fatal(err)
		}
		want, wantACF := bruteConcurrency(t, intervals, horizon)
		sameConcurrency(t, fmt.Sprintf("%d intervals over %d s", len(intervals), horizon), got, want, wantACF)
	})
}

// TestConcurrencyMemoryIndependentOfHorizon: nothing in Concurrency is
// sized by the second. The same 10⁴ intervals over ten times the
// horizon allocate more only by what the longer 1-minute and 15-minute
// series take — sums and means, 8 bytes each per bin — where a
// per-second array would take 4 bytes for every added second.
func TestConcurrencyMemoryIndependentOfHorizon(t *testing.T) {
	const short, long = 28 * 86400, 280 * 86400
	rng := rand.New(rand.NewSource(5))
	intervals := make([]Interval, 10_000)
	for i := range intervals {
		start := rng.Int63n(short)
		intervals[i] = Interval{Start: start, End: start + rng.Int63n(3600)}
	}
	allocated := func(horizon int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Concurrency(intervals, horizon); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(short) // warm up
	a, b := allocated(short), allocated(long)
	series := uint64(2*8*(long-short)/ACFBin + 2*8*(long-short)/TemporalBin)
	if limit := a + series + series/8 + 1<<16; b > limit { // an eighth for size-class rounding
		t.Errorf("Concurrency allocates %d B over 28 days and %d B over 280: want at most %d more (the minute and 15-minute series)", a, b, limit-a)
	}
	if perSecond := uint64(4 * (long - short)); b-a >= perSecond/4 {
		t.Errorf("allocation grew by %d B for %d more seconds: that is per-second storage", b-a, long-short)
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
