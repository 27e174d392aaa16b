package dist

import (
	"math"
	"sort"
	"testing"
)

// rankOracle is RankOfU as it was before the guide table: the binary
// search over the cumulative weights.
func rankOracle(z *Zipf, u float64) int {
	i := sort.SearchFloat64s(z.cum, u)
	if i >= z.N {
		i = z.N - 1
	}
	return i + 1
}

// TestZipfRankMatchesBinarySearch: guide-table start plus local fix-up
// returns exactly the binary search's rank — at every table entry and
// its two float64 neighbours (where an off-by-one would show), at the
// domain's edges and outside it, and over seeded uniform draws.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	for _, alpha := range []float64{0.3, 0.4704, 1, 2.70417} {
		for _, n := range []int{1, 2, 3, 3000, 345_944} {
			z, err := NewZipf(alpha, n)
			if err != nil {
				t.Fatal(err)
			}
			check := func(u float64) {
				t.Helper()
				if got, want := z.RankOfU(u), rankOracle(z, u); got != want {
					t.Fatalf("%v: RankOfU(%v) = %d, binary search says %d", z, u, got, want)
				}
			}
			total := z.Total()
			for _, u := range []float64{
				0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1, math.Inf(-1),
				total, math.Nextafter(total, 0), math.Nextafter(total, math.Inf(1)),
				2 * total, math.Inf(1), math.NaN(),
			} {
				check(u)
			}
			for _, c := range z.cum {
				check(c)
				check(math.Nextafter(c, math.Inf(1)))
				check(math.Nextafter(c, math.Inf(-1)))
			}
			// Bucket edges as RankOfU computes them, and their neighbours.
			for j := range z.guide {
				edge := float64(j) / z.perU
				check(edge)
				check(math.Nextafter(edge, math.Inf(1)))
				check(math.Nextafter(edge, math.Inf(-1)))
			}
			draws := uint64(1_000_000)
			if testing.Short() {
				draws = 50_000
			}
			for i := uint64(0); i < draws; i++ {
				check(float64(Mix64(2002, i)>>11) / (1 << 53) * total)
			}
		}
	}
}

// TestZipfRankSurvivesAnyGuide is the identity argument run as a test:
// the fix-up loops land on the binary search's index from any starting
// point, so a guide table of garbage changes the cost, never the rank.
func TestZipfRankSurvivesAnyGuide(t *testing.T) {
	z, err := NewZipf(0.4704, 3000)
	if err != nil {
		t.Fatal(err)
	}
	total := z.Total()
	for _, fill := range []func(j int) uint32{
		func(int) uint32 { return 0 },
		func(int) uint32 { return uint32(z.N - 1) },
		func(j int) uint32 { return uint32(Mix64(7, uint64(j)) % uint64(z.N)) },
	} {
		for j := range z.guide {
			z.guide[j] = fill(j)
		}
		for i := uint64(0); i < 20_000; i++ {
			u := float64(Mix64(31337, i)>>11) / (1 << 53) * total
			if got, want := z.RankOfU(u), rankOracle(z, u); got != want {
				t.Fatalf("RankOfU(%v) = %d under a scrambled guide, binary search says %d", u, got, want)
			}
		}
	}
}

// TestZipfPlateau: with a steep law the tail weights vanish against the
// running total, so cum ends in a run of equal values; the first index
// of the run is the binary search's answer and must be RankOfU's.
func TestZipfPlateau(t *testing.T) {
	z, err := NewZipf(40, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if z.cum[z.N-1] != z.cum[z.N-2] {
		t.Fatal("fixture has no plateau")
	}
	for _, u := range []float64{z.Total(), math.Nextafter(z.Total(), 0), 1, 1.0000001, 0.5} {
		if got, want := z.RankOfU(u), rankOracle(z, u); got != want {
			t.Fatalf("RankOfU(%v) = %d, binary search says %d", u, got, want)
		}
	}
}
