package simulate

import (
	"math"
	"math/rand/v2"
)

// drawBandwidth models Figure 20's two modes.
//
// With probability congestionFrac the transfer is congestion-bound:
// "extremely limited network resources" put its average bandwidth far
// below any access-link speed, here a low lognormal mode. Otherwise the
// transfer is client-bound: it runs at the client's access-link speed
// with small jitter, producing the discrete spikes on the right-hand side
// of the distribution.
//
// The returned bool reports whether the transfer was congestion-bound.
func drawBandwidth(accessBps int64, rng *rand.Rand) (int64, bool) {
	if rng.Float64() < congestionFrac {
		bw := int64(math.Exp(congestionMu + congestionSigma*rng.NormFloat64()))
		if bw < 100 {
			bw = 100
		}
		// Congestion cannot exceed the access link either.
		if bw > accessBps {
			bw = accessBps
		}
		return bw, true
	}
	jitter := 1 + bandwidthJitter*(2*rng.Float64()-1)
	bw := int64(float64(accessBps) * jitter)
	if bw < 100 {
		bw = 100
	}
	return bw, false
}

// drawLoss models client-side packet loss: a small base rate for
// client-bound transfers, an order of magnitude worse under congestion.
func drawLoss(duration int64, congested bool, rng *rand.Rand) int64 {
	rate := baseLossRate
	if congested {
		rate *= 12
	}
	// ~25 packets/second of stream; Poisson-approximate via a normal for
	// large means, exact small-count draw otherwise.
	mean := rate * 25 * float64(duration)
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		return int64(v)
	}
	// Knuth's Poisson draw for small means.
	l := math.Exp(-mean)
	var k int64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1_000 {
			return k
		}
	}
}

// cpuAt models server CPU utilization at a given concurrency level: a
// linear per-transfer cost plus bounded measurement noise, clamped to
// [0, 100]. With this calibration the server stays far below 10%
// at the paper's peak concurrency (~4,000 transfers), reproducing the
// Section 2.4 audit.
func cpuAt(concurrent int, rng *rand.Rand) float64 {
	cpu := cpuPerTransfer*float64(concurrent) + cpuNoise*rng.Float64()
	if cpu < 0 {
		cpu = 0
	}
	if cpu > 100 {
		cpu = 100
	}
	return math.Round(cpu*100) / 100
}
