package analyze

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestOnlineLayerMatchesBatch feeds the shared fixture's sanitized
// trace through the online accumulator and compares every estimator
// against its batch counterpart. Exact quantities must agree exactly;
// sketched ones within their documented error bounds.
func TestOnlineLayerMatchesBatch(t *testing.T) {
	f := getFixture(t)
	tr := f.tr

	ol, err := NewOnlineLayer(tr.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range tr.Transfers {
		if err := ol.Add(tf); err != nil {
			t.Fatal(err)
		}
	}
	snap := ol.Snapshot()

	// Exact: counts and totals.
	if snap.Transfers != tr.NumTransfers() {
		t.Errorf("transfers: %d vs %d", snap.Transfers, tr.NumTransfers())
	}
	if snap.TotalBytes != tr.TotalBytes() {
		t.Errorf("bytes: %d vs %d", snap.TotalBytes, tr.TotalBytes())
	}
	if snap.ASes != tr.DistinctAS() {
		t.Errorf("ASes: %d vs %d", snap.ASes, tr.DistinctAS())
	}
	if snap.Objects != tr.DistinctObjects() {
		t.Errorf("objects: %d vs %d", snap.Objects, tr.DistinctObjects())
	}

	// Sketched: distinct clients and IPs within ~3%.
	clients := make(map[int32]bool)
	for _, x := range tr.Transfers {
		clients[x.Client] = true
	}
	if rel := math.Abs(snap.Clients-float64(len(clients))) / float64(len(clients)); rel > 0.03 {
		t.Errorf("clients: estimate %v vs %d (rel %.4f)", snap.Clients, len(clients), rel)
	}
	if rel := math.Abs(snap.IPs-float64(tr.DistinctIPs())) / float64(tr.DistinctIPs()); rel > 0.03 {
		t.Errorf("IPs: estimate %v vs %d (rel %.4f)", snap.IPs, tr.DistinctIPs(), rel)
	}

	// Exact: transfer-length moments versus the batch layer's samples.
	tl, err := AnalyzeTransferLayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := stats.Summarize(tl.Lengths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.LengthMean-sum.Mean) > 1e-9*sum.Mean {
		t.Errorf("length mean: %v vs %v", snap.LengthMean, sum.Mean)
	}
	if math.Abs(snap.LengthStddev-sum.Stddev) > 1e-6*sum.Stddev {
		t.Errorf("length stddev: %v vs %v", snap.LengthStddev, sum.Stddev)
	}
	// Sketched: quantiles within ~5%.
	for _, q := range []struct {
		got, want float64
		name      string
	}{
		{snap.LengthP50, sum.Median, "p50"},
		{snap.LengthP90, sum.P90, "p90"},
		{snap.LengthP99, sum.P99, "p99"},
	} {
		if rel := math.Abs(q.got-q.want) / q.want; rel > 0.05 {
			t.Errorf("length %s: %v vs %v (rel %.4f)", q.name, q.got, q.want, rel)
		}
	}

	// Exact: peak 1-second concurrency equals the batch sweep's peak.
	if snap.PeakConcurrency != tl.Concurrency.Peak {
		t.Errorf("peak concurrency: %d vs %d", snap.PeakConcurrency, tl.Concurrency.Peak)
	}

	// Exact: the 15-minute arrival series equals the batch binning.
	starts := make([]int64, tr.NumTransfers())
	for i, tf := range tr.Transfers {
		starts[i] = tf.Start
	}
	batchBins, err := stats.BinCounts(starts, tr.Horizon, TemporalBin)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Arrivals.Values) != len(batchBins.Values) {
		t.Fatalf("bins: %d vs %d", len(snap.Arrivals.Values), len(batchBins.Values))
	}
	for i := range batchBins.Values {
		if snap.Arrivals.Values[i] != batchBins.Values[i] {
			t.Fatalf("bin %d: %v vs %v", i, snap.Arrivals.Values[i], batchBins.Values[i])
		}
	}
	if len(snap.ArrivalsDay.Values) != 96 {
		t.Errorf("daily fold has %d phases, want 96", len(snap.ArrivalsDay.Values))
	}
}

func TestOnlineLayerRejectsDisorder(t *testing.T) {
	ol, err := NewOnlineLayer(1000)
	if err != nil {
		t.Fatal(err)
	}
	f := getFixture(t)
	if err := ol.Add(f.tr.Transfers[1]); err != nil {
		t.Fatal(err)
	}
	early := f.tr.Transfers[1]
	early.Start -= 10
	if err := ol.Add(early); err == nil {
		t.Error("out-of-order transfer accepted")
	}
	if _, err := NewOnlineLayer(0); err == nil {
		t.Error("zero horizon accepted")
	}
}
