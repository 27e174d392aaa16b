package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analyze"
	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/trace"
)

// referenceObserve is Observe as it ran before the observer, kept as
// the reference: the trace sessionized into lists of transfer indices,
// then the four layers as concurrent tasks, each drawing its samples
// from the session set and the trace's rows. Its sessionizer and its
// layer bodies compute what that version's did, so the observer is
// held to code it shares nothing with but the fits and the sorts.
func referenceObserve(tr *trace.Trace, timeout int64) (*Characterization, error) {
	set, err := referenceSessionize(tr, timeout)
	if err != nil {
		return nil, err
	}
	char := &Characterization{Horizon: tr.Horizon, Timeout: timeout}
	err = firstError(
		func() (err error) {
			if char.Client, err = referenceClientLayer(tr, set); err != nil {
				return taskError("client layer", err)
			}
			starts := make([]int64, len(set))
			for i, s := range set {
				starts[i] = s.Start
			}
			if bins, err := stats.BinCounts(starts, tr.Horizon, analyze.TemporalBin); err == nil {
				char.ArrivalBins = bins
			}
			return nil
		},
		func() (err error) {
			char.Session, err = referenceSessionLayer(tr, set)
			return taskError("session layer", err)
		},
		func() (err error) {
			char.Transfer, err = referenceTransferLayer(tr)
			return taskError("transfer layer", err)
		},
		func() (err error) {
			if char.Divers, err = analyze.AnalyzeDiversity(tr); err == nil {
				char.Basic = BasicStats{
					Days:       int(tr.Horizon / 86400),
					Objects:    len(char.Divers.ObjectShare),
					ASes:       char.Divers.NumAS,
					IPs:        char.Divers.NumIPs,
					Users:      referenceUsers(tr),
					Sessions:   len(set),
					Transfers:  tr.NumTransfers(),
					TotalBytes: tr.TotalBytes(),
				}
			}
			return taskError("diversity", err)
		},
	)
	if err != nil {
		return nil, err
	}
	return char, nil
}

// referenceSession is one session as referenceSessionize cuts it: the
// client, its transfers' indices into the trace in start order, its
// first start and its latest end.
type referenceSession struct {
	Client     int32
	Transfers  []int
	Start, End int64
}

// referenceSessionize is the one-walk sessionization Sessionize was
// before the Sessionizer: the trace walked in order, each client's
// running session closed by a start more than T_o past its latest end,
// sessions kept in the order they open.
func referenceSessionize(tr *trace.Trace, timeout int64) ([]referenceSession, error) {
	if timeout <= 0 {
		return nil, fmt.Errorf("%w: %d", sessions.ErrBadTimeout, timeout)
	}
	open := make(map[int32]int) // client → 1 + index in out of its running session
	var out []referenceSession
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		if o := open[t.Client]; o != 0 && t.Start-out[o-1].End <= timeout {
			cur := &out[o-1]
			cur.Transfers = append(cur.Transfers, i)
			cur.End = max(cur.End, t.End())
			continue
		}
		out = append(out, referenceSession{Client: t.Client, Transfers: []int{i}, Start: t.Start, End: t.End()})
		open[t.Client] = len(out)
	}
	return out, nil
}

// referenceUsers counts tr's distinct clients.
func referenceUsers(tr *trace.Trace) int {
	_, n := referenceSlots(tr)
	return n
}

// referenceSlots numbers tr's distinct clients 0..n-1 in ascending id
// order: it returns each transfer's client number and n.
func referenceSlots(tr *trace.Trace) (slot []int, n int) {
	ids := make([]int32, len(tr.Transfers))
	for i := range tr.Transfers {
		ids[i] = tr.Transfers[i].Client
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	slot = make([]int, len(tr.Transfers))
	for i := range tr.Transfers {
		slot[i], _ = slices.BinarySearch(ids, tr.Transfers[i].Client)
	}
	return slot, len(ids)
}

var errEmptySet = fmt.Errorf("%w: empty session set", analyze.ErrBadInput)

// referenceClientLayer is the Section 3 layer as it was computed from a
// session set.
func referenceClientLayer(tr *trace.Trace, set []referenceSession) (*analyze.ClientLayer, error) {
	if len(set) == 0 {
		return nil, errEmptySet
	}
	ivs := make([]analyze.Interval, len(set))
	for i, s := range set {
		ivs[i] = analyze.Interval{Start: s.Start, End: s.End}
	}
	conc, err := analyze.Concurrency(ivs, tr.Horizon)
	if err != nil {
		return nil, err
	}
	out := &analyze.ClientLayer{Concurrency: conc, Interarrivals: make([]float64, 0, len(set))}
	for i := 1; i < len(set); i++ {
		if set[i].Client != set[i-1].Client {
			out.Interarrivals = append(out.Interarrivals, stats.LogDisplayValue(float64(set[i].Start-set[i-1].Start)))
		}
	}
	stats.SortInPlace(out.Interarrivals)
	slot, clients := referenceSlots(tr)
	out.SessionsPerClient = make([]int, clients)
	for _, s := range set {
		out.SessionsPerClient[slot[s.Transfers[0]]]++
	}
	if out.InterestSessions, err = dist.FitZipfCounts(out.SessionsPerClient); err != nil {
		return nil, fmt.Errorf("interest (sessions): %w", err)
	}
	return out, nil
}

// referenceSessionLayer is the Section 4 layer as it was computed from
// a session set: OFF times through each client's previous session,
// intra-session gaps through each session's transfer indices.
func referenceSessionLayer(tr *trace.Trace, set []referenceSession) (*analyze.SessionLayer, error) {
	if len(set) == 0 {
		return nil, errEmptySet
	}
	slot, clients := referenceSlots(tr)
	out := &analyze.SessionLayer{
		OnTimes:             make([]float64, len(set)),
		OffTimes:            make([]float64, 0, len(set)),
		TransfersPerSession: make([]int, len(set)),
		IntraArrivals:       make([]float64, 0, tr.NumTransfers()),
	}
	prev := make([]int, clients) // 1 + index of the client's previous session
	for i, s := range set {
		out.OnTimes[i] = stats.LogDisplayValue(float64(s.End - s.Start))
		out.TransfersPerSession[i] = len(s.Transfers)
		k := slot[s.Transfers[0]]
		if p := prev[k]; p != 0 {
			if off := s.Start - set[p-1].End; off >= 0 {
				out.OffTimes = append(out.OffTimes, float64(off))
			}
		}
		prev[k] = i + 1
		for j := 1; j < len(s.Transfers); j++ {
			gap := tr.Transfers[s.Transfers[j]].Start - tr.Transfers[s.Transfers[j-1]].Start
			out.IntraArrivals = append(out.IntraArrivals, stats.LogDisplayValue(float64(gap)))
		}
	}
	stats.SortInPlace(out.OffTimes)
	fit, err := dist.FitLognormal(out.OnTimes)
	if err != nil {
		return nil, fmt.Errorf("session ON fit: %w", err)
	}
	out.OnFit = fit
	stats.SortInPlace(out.OnTimes)
	if out.PerSessionFit, err = dist.FitZipfFrequencies(referencePerSessionFrequencies(out.TransfersPerSession)); err != nil {
		return nil, fmt.Errorf("transfers-per-session fit: %w", err)
	}
	if len(out.IntraArrivals) >= 2 {
		if out.IntraFit, err = dist.FitLognormal(out.IntraArrivals); err != nil {
			return nil, fmt.Errorf("intra-session fit: %w", err)
		}
		stats.SortInPlace(out.IntraArrivals)
	}
	return out, nil
}

// referencePerSessionFrequencies is Figure 13's frequency vector with
// the bins of fewer than five sessions dropped, unless that leaves
// fewer than three.
func referencePerSessionFrequencies(counts []int) []float64 {
	maxV := 0
	for _, c := range counts {
		maxV = max(maxV, c)
	}
	freq := make([]float64, maxV)
	for _, c := range counts {
		if c >= 1 {
			freq[c-1]++
		}
	}
	for i := range freq {
		freq[i] /= float64(len(counts))
	}
	threshold := 5 / float64(len(counts))
	filtered := make([]float64, len(freq))
	kept := 0
	for i, f := range freq {
		if f >= threshold {
			filtered[i] = f
			kept++
		}
	}
	if kept < 3 {
		return freq
	}
	return filtered
}

// referenceTransferLayer is the Section 5 layer as it was computed from
// a trace's rows.
func referenceTransferLayer(tr *trace.Trace) (*analyze.TransferLayer, error) {
	n := tr.NumTransfers()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty trace", analyze.ErrBadInput)
	}
	ivs := make([]analyze.Interval, n)
	out := &analyze.TransferLayer{Lengths: make([]float64, n), Interarrivals: make([]float64, n-1)}
	for i, t := range tr.Transfers {
		ivs[i] = analyze.Interval{Start: t.Start, End: t.End()}
		out.Lengths[i] = stats.LogDisplayValue(float64(t.Duration))
		if i > 0 {
			out.Interarrivals[i-1] = stats.LogDisplayValue(float64(t.Start - tr.Transfers[i-1].Start))
		}
	}
	var err error
	if out.Concurrency, err = analyze.Concurrency(ivs, tr.Horizon); err != nil {
		return nil, err
	}
	stats.SortInPlace(out.Interarrivals)
	if out.LengthFit, err = dist.FitLognormal(out.Lengths); err != nil {
		return nil, fmt.Errorf("transfer length fit: %w", err)
	}
	stats.SortInPlace(out.Lengths)
	return out, nil
}

// referenceCharacterize is Characterize as it ran before the figure
// step streamed: referenceObserve, then referenceFigures.
func referenceCharacterize(tr *trace.Trace, timeout int64, sweep []int64, seed int64) (*Characterization, error) {
	char, err := referenceObserve(tr, timeout)
	if err != nil {
		return nil, err
	}
	if char.Figures, err = referenceFigures(tr, char, timeout, sweep, seed); err != nil {
		return nil, err
	}
	return char, nil
}

// referenceFigures is the figure step as it ran over a whole trace,
// kept as the reference: Figure 7's transfers per client through the
// trace's client index, the Figure 9 sweep over the silent gaps a walk
// of the trace finds, the Figure 18 bins and the Figure 20 bandwidths
// read off the trace's rows, and the server-load audit over a
// per-second array. Its tasks run one after the other and the first
// failure in task order is reported.
func referenceFigures(tr *trace.Trace, char *Characterization, timeout int64, sweep []int64, seed int64) (*FigureData, error) {
	if sweep == nil {
		sweep = DefaultTimeoutSweep
	}
	figs := &FigureData{Audit: referenceAudit(tr, auditThreshold)}
	var err error
	if figs.Client, err = referenceClientFigures(tr); err != nil {
		return nil, taskError("client layer", err)
	}
	if len(char.ArrivalBins.Values) > 0 {
		figs.Poisson = poissonReplica(char.ArrivalBins, tr.Horizon, char.Client.Interarrivals, seed)
	}
	z, _ := sessions.NewSessionizer(timeout, 0)
	for i := range tr.Transfers {
		z.Add(&tr.Transfers[i])
	}
	if figs.Session, err = analyze.DescribeSessionLayer(z, char.Session); err != nil {
		return nil, taskError("session layer", err)
	}
	if figs.Transfer, err = referenceTransferFigures(tr, char.Transfer); err != nil {
		return nil, taskError("transfer layer", err)
	}
	if figs.Sweep, err = referenceSweep(tr, sweep); err != nil {
		return nil, taskError("timeout sweep", err)
	}
	return figs, nil
}

// referenceClientFigures is Figure 7's left panel as it was read off the
// trace: a transfer count per client, in ascending client-id order.
func referenceClientFigures(tr *trace.Trace) (*analyze.ClientFigures, error) {
	if tr.NumTransfers() == 0 {
		return nil, fmt.Errorf("%w: empty trace", analyze.ErrBadInput)
	}
	slot, clients := referenceSlots(tr)
	out := &analyze.ClientFigures{TransfersPerClient: make([]int, clients)}
	for _, k := range slot {
		out.TransfersPerClient[k]++
	}
	var err error
	if out.InterestTransfers, err = dist.FitZipfCounts(out.TransfersPerClient); err != nil {
		return nil, fmt.Errorf("interest (transfers): %w", err)
	}
	return out, nil
}

// referenceTransferFigures is the Section 5 figure material as it was
// read off the trace: each gap between consecutive starts binned under
// the earlier start, and every row's bandwidth.
func referenceTransferFigures(tr *trace.Trace, tl *analyze.TransferLayer) (*analyze.TransferFigures, error) {
	if tr.NumTransfers() == 0 {
		return nil, fmt.Errorf("%w: empty trace", analyze.ErrBadInput)
	}
	var binned stats.BinnedSeries
	if tr.NumTransfers() >= 2 {
		bins, err := stats.NewMeanBins(tr.Horizon, analyze.TemporalBin)
		if err != nil {
			return nil, err
		}
		for i := 0; i+1 < tr.NumTransfers(); i++ {
			bins.Add(tr.Transfers[i].Start, stats.LogDisplayValue(float64(tr.Transfers[i+1].Start-tr.Transfers[i].Start)))
		}
		binned = bins.Series()
	}
	bandwidths := make([]float64, tr.NumTransfers())
	for i := range tr.Transfers {
		bandwidths[i] = float64(tr.Transfers[i].Bandwidth)
	}
	return analyze.DescribeTransferLayer(tl, binned, bandwidths)
}

// referenceSweep is the Figure 9 sweep as it ran over the trace:
// sessions(T_o) = clients + #{silent gaps > T_o}, each gap the start of
// a transfer minus the latest end among its client's earlier transfers.
func referenceSweep(tr *trace.Trace, timeouts []int64) ([]sessions.SweepPoint, error) {
	for _, to := range timeouts {
		if to <= 0 {
			return nil, fmt.Errorf("%w: %d", sessions.ErrBadTimeout, to)
		}
	}
	latest := make(map[int32]int64) // latest end per client so far
	var gaps []int64
	for _, t := range tr.Transfers {
		if end, seen := latest[t.Client]; seen && t.Start > end {
			gaps = append(gaps, t.Start-end)
		}
		latest[t.Client] = max(latest[t.Client], t.End())
	}
	out := make([]sessions.SweepPoint, 0, len(timeouts))
	for _, to := range timeouts {
		n := len(latest)
		for _, gap := range gaps {
			if gap > to {
				n++
			}
		}
		out = append(out, sessions.SweepPoint{Timeout: to, Sessions: n})
	}
	return out, nil
}

// perSecondReadings is the overload audit's walk as it shipped before
// the event sweep, kept as the reference: a float64 and an int32 slot
// for every second of the horizon, each transfer's reading scattered
// into its first second and out of the second after its last, then one
// integration over the horizon. It returns the reading (running sum ÷
// running count) of every second at least one transfer spans.
func perSecondReadings(tr *trace.Trace) []float64 {
	sum := make([]float64, tr.Horizon+1)
	cnt := make([]int32, tr.Horizon+1)
	for _, t := range tr.Transfers {
		lo, hi := t.Start, t.End()
		if lo < 0 {
			lo = 0
		}
		if hi > tr.Horizon {
			hi = tr.Horizon
		}
		if hi <= lo {
			hi = lo + 1 // zero-length transfers still occupy their second
			if hi > tr.Horizon {
				continue
			}
		}
		sum[lo] += t.ServerCPU
		sum[hi] -= t.ServerCPU
		cnt[lo]++
		cnt[hi]--
	}
	var readings []float64
	var runSum float64
	var runCnt int32
	for s := int64(0); s < tr.Horizon; s++ {
		runSum += sum[s]
		runCnt += cnt[s]
		if runCnt > 0 {
			readings = append(readings, runSum/float64(runCnt))
		}
	}
	return readings
}

// referenceAudit is the server-load audit over perSecondReadings.
func referenceAudit(tr *trace.Trace, threshold float64) trace.OverloadAudit {
	audit := trace.OverloadAudit{Threshold: threshold, TimeBelowFrac: 1, TransferBelowFrac: 1}
	if tr.NumTransfers() == 0 {
		return audit
	}
	below := 0
	for _, t := range tr.Transfers {
		if t.ServerCPU < threshold {
			below++
		}
	}
	audit.TransferBelowFrac = float64(below) / float64(tr.NumTransfers())
	if readings := perSecondReadings(tr); len(readings) > 0 {
		below = 0
		for _, r := range readings {
			if r < threshold {
				below++
			}
		}
		audit.TimeBelowFrac = float64(below) / float64(len(readings))
	}
	return audit
}

// auditOf feeds tr's transfers to a trace.Auditor at threshold.
func auditOf(tr *trace.Trace, threshold float64) trace.OverloadAudit {
	a := trace.NewAuditor(tr.Horizon, threshold)
	for i := range tr.Transfers {
		a.Add(&tr.Transfers[i])
	}
	return a.Audit()
}

// TestAuditMatchesPerSecondReference: the auditor's event sweep counts
// the seconds the per-second walk counts. The threshold is put on
// readings the reference itself produced, so a running sum that differs
// in its last bit — readings added in another order — moves a second
// across it.
func TestAuditMatchesPerSecondReference(t *testing.T) {
	tx := func(client int, start, dur int64, cpu float64) trace.Transfer {
		return trace.Transfer{Client: int32(client), AS: 1, Start: start, Duration: dur, ServerCPU: cpu}
	}
	rng := rand.New(rand.NewSource(17))
	random := func(n int, horizon int64) []trace.Transfer {
		ts := make([]trace.Transfer, n)
		for i := range ts {
			start := rng.Int63n(horizon+400) - 200 // some before 0, some past the horizon
			dur := rng.Int63n(900)
			if rng.Intn(5) == 0 {
				dur = 0
			}
			ts[i] = tx(rng.Intn(50), start, dur, float64(rng.Intn(997))/10+rng.Float64()/1e6)
		}
		return ts
	}
	fixtures := map[string]struct {
		horizon   int64
		transfers []trace.Transfer
	}{
		// Two transfers end and one starts in second 40; a zero-length
		// one sits in the last second; 0.1 + 0.2 − 0.1 is not 0.2.
		"same second": {100, []trace.Transfer{
			tx(1, 10, 30, 0.1),
			tx(2, 20, 20, 0.2),
			tx(3, 40, 25, 0.3),
			tx(4, 5, 80, 0.7),
			tx(5, 99, 0, 12.5),
		}},
		"outside the horizon": {60, []trace.Transfer{
			tx(1, -30, 10, 3.3), // wholly before 0: the walk counts it in second 0
			tx(2, -5, 20, 1.1),
			tx(3, 50, 500, 9.9),
			tx(4, 60, 5, 50),
			tx(5, 200, 0, 50),
			tx(6, 59, 1, 0.3),
		}},
		"one second":   {1, random(40, 1)},
		"random":       {3000, random(300, 3000)},
		"past radix":   {86400, random(5000, 86400)},
		"dense events": {500, random(20000, 500)},
	}
	for name, f := range fixtures {
		tr, err := trace.New(f.horizon, f.transfers)
		if err != nil {
			t.Fatal(err)
		}
		readings := perSecondReadings(tr)
		if len(readings) == 0 {
			t.Fatalf("%s: no active second", name)
		}
		thresholds := []float64{0, 10, math.Inf(1)}
		distinct := slices.Compact(slices.Sorted(slices.Values(readings)))
		for i := 0; i < len(distinct); i += max(1, len(distinct)/40) {
			thresholds = append(thresholds, distinct[i], math.Nextafter(distinct[i], math.Inf(1)))
		}
		for _, threshold := range thresholds {
			want := referenceAudit(tr, threshold)
			if got := auditOf(tr, threshold); math.Float64bits(got.TimeBelowFrac) != math.Float64bits(want.TimeBelowFrac) || got != want {
				t.Errorf("%s, threshold %v: audit %+v, per-second walk %+v", name, threshold, got, want)
			}
		}
	}
}

// checkObserveMatchesReference observes tr and holds the result to
// the reference, every core field deep-equal — the minute series the
// on-demand ACFs are computed from included — or the same error; and
// characterizes it and holds that to the reference too, every figure
// field and the audit included.
func checkObserveMatchesReference(t *testing.T, tr *trace.Trace, timeout int64) {
	t.Helper()
	want, wantErr := referenceObserve(tr, timeout)
	got, err := Observe(tr, timeout)
	sameCharacterization(t, "Observe", got, err, want, wantErr)
	want, wantErr = referenceCharacterize(tr, timeout, nil, 5)
	got, err = Characterize(tr, timeout, nil, 5)
	sameCharacterization(t, "Characterize", got, err, want, wantErr)
}

// sameCharacterization fails t unless got and err are want and wantErr,
// field for field and bit for bit.
func sameCharacterization(t *testing.T, name string, got *Characterization, err error, want *Characterization, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s error %v, reference %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) && dumpChar(got) != dumpChar(want) { // the dump tells a NaN from itself
		t.Fatalf("%s differs from the reference: %s", name, firstDiff(dumpChar(got), dumpChar(want)))
	}
}

// logTrace writes a served week with spanning entries as daily logs
// and loads them back (logsTrace).
func logTrace(t *testing.T) *trace.Trace {
	t.Helper()
	m, err := gismo.Scaled(150, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig()
	cfg.SpanningPerMillion = 20000
	res, err := simulate.Run(w, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	files, err := res.WriteLogs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := logsTrace(files, 7*86400)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestObserverMatchesReference: the observer's one walk gives every
// core field the batch reference gives, bit for bit, at any core count
// — on a trace ingested from daily logs and on a served run whose log
// carries spanning entries — and, with the figure material, every
// figure field and the audit the trace-walking figure step gives; and
// so do the twin's path and Run, which observe the served rows as they
// come and build no trace.
func TestObserverMatchesReference(t *testing.T) {
	fromLogs := logTrace(t)
	m, err := gismo.Scaled(150, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig()
	cfg.SpanningPerMillion = 20000
	served, sanitized, peak := servedTrace(t, m, cfg, 9)
	if sanitized.DroppedSpanning == 0 {
		t.Fatal("the served run has no spanning entries")
	}
	atGOMAXPROCS(t, func(t *testing.T) {
		for _, c := range []struct {
			name string
			tr   *trace.Trace
		}{{"FromLogs", fromLogs}, {"Serve", served}} {
			t.Run(c.name, func(t *testing.T) {
				for _, timeout := range []int64{sessions.DefaultTimeout, 60} {
					checkObserveMatchesReference(t, c.tr, timeout)
				}
			})
		}
		t.Run("ObserveServed", func(t *testing.T) {
			got, err := ObserveServed(m, cfg, 9, sessions.DefaultTimeout)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceObserve(served, sessions.DefaultTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ObserveServed differs from the reference over the served trace: %s", firstDiff(dumpChar(got), dumpChar(want)))
			}
			rep, err := Run(Config{Model: m, Server: cfg, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			want, err = referenceCharacterize(served, sessions.DefaultTimeout, nil, 9)
			if err != nil {
				t.Fatal(err)
			}
			if d, w := dumpChar(rep.Char), dumpChar(want); d != w {
				t.Fatalf("Run differs from the reference over the served trace: %s", firstDiff(d, w))
			}
			if rep.Sanitize != sanitized || rep.Peak != peak || rep.Audit != want.Figures.Audit {
				t.Fatalf("Run reports %+v, peak %d, audit %+v; the served run %+v, peak %d, audit %+v",
					rep.Sanitize, rep.Peak, rep.Audit, sanitized, peak, want.Figures.Audit)
			}
		})
	})
}

// TestObserverErrorsMatchReference: the observer fails where the
// reference does, with the same error — a bad timeout, an empty trace,
// one transfer, a horizon the concurrency sweep cannot hold.
func TestObserverErrorsMatchReference(t *testing.T) {
	empty, err := trace.New(86400, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := trace.New(86400, []trace.Transfer{{Client: 1, AS: 1, Start: 10, Duration: 5}})
	if err != nil {
		t.Fatal(err)
	}
	wide := &trace.Trace{Horizon: math.MaxInt32 + 1, Transfers: one.Transfers}
	for _, c := range []struct {
		name    string
		tr      *trace.Trace
		timeout int64
	}{{"bad timeout", one, 0}, {"empty", empty, 1500}, {"one transfer", one, 1500}, {"wide horizon", wide, 1500}} {
		t.Run(c.name, func(t *testing.T) {
			_, wantErr := referenceObserve(c.tr, c.timeout)
			if wantErr == nil {
				t.Fatal("the reference does not fail")
			}
			checkObserveMatchesReference(t, c.tr, c.timeout)
		})
	}
}

// fuzzTrace draws a small trace from the fuzzer's bytes: few clients,
// sparse and negative ids among them, starts on a coarse grid so that
// starts tie, transfers of one client that overlap, silent gaps of
// exactly T_o and T_o+1, one-transfer sessions, and zero-length
// transfers and transfers that end on the horizon.
func fuzzTrace(seed int64, n uint8, timeout int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	const horizon = 4 * 86400
	ids := []int32{0, 1, 2, 5, 9, -3, 1 << 25}
	ids = ids[:1+rng.Intn(len(ids))]
	last := make(map[int32]int64) // a client's latest end so far
	ts := make([]trace.Transfer, 0, int(n)+1)
	for i := 0; i <= int(n); i++ {
		c := ids[rng.Intn(len(ids))]
		var start int64
		switch end, seen := last[c]; {
		case seen && rng.Intn(3) == 0:
			start = end + timeout + int64(rng.Intn(2)) // a gap of T_o or T_o+1
		case seen && rng.Intn(3) == 0:
			start = max(end-int64(rng.Intn(50)), 0) // overlaps the client's latest
		default:
			start = int64(rng.Intn(horizon/60)) * 60 // a coarse grid: ties
		}
		var dur int64
		switch rng.Intn(4) {
		case 0: // zero-length
		case 1:
			dur = int64(rng.Intn(3 * int(timeout)))
		default:
			dur = int64(rng.Intn(600))
		}
		if start+dur > horizon {
			start, dur = min(start, horizon), horizon-min(start, horizon) // ends on the horizon
		}
		last[c] = max(last[c], start+dur)
		ts = append(ts, trace.Transfer{
			Client: c, Start: start, Duration: dur, Object: uint16(rng.Intn(2)),
			Bytes: int64(rng.Intn(1 << 20)), Bandwidth: int64(rng.Intn(300000)),
			IP: uint32(rng.Intn(12)), AS: uint32(1 + rng.Intn(4)), Country: uint16(rng.Intn(3)),
		})
	}
	tr, err := trace.New(horizon, ts)
	if err != nil {
		panic(err)
	}
	tr.Names = &trace.Names{Countries: []string{"BR", "US"}}
	return tr
}

// FuzzObserverMatchesReference: over small random traces — equal
// starts, overlapping transfers of one client, gaps of exactly T_o and
// T_o+1, one-transfer sessions — Observe equals the reference field
// for field, and so does Characterize with the figure material on, or
// each fails with the same error.
func FuzzObserverMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), int64(1500))
	f.Add(int64(2), uint8(40), int64(1500))
	f.Add(int64(3), uint8(200), int64(60))
	f.Add(int64(4), uint8(255), int64(1))
	f.Add(int64(5), uint8(120), int64(900))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, timeout int64) {
		timeout = 1 + (timeout%4000+4000)%4000
		checkObserveMatchesReference(t, fuzzTrace(seed, n, timeout), timeout)
	})
}
