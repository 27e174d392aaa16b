package stats

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stdlibSortedCopy is what every SortedCopy call site did before the
// radix kernel, kept as the reference: copy, then sort.Float64s.
func stdlibSortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// checkSorts holds the three sorts of a sample to the stdlib reference
// bit for bit (NaN payloads and the sign of zero included): SortedCopy,
// which must leave the input alone and not alias it; SortInPlace of a
// copy; and SortedView, which must return the caller's own slice
// exactly when the input is in sorted form — ascending with no NaN, no
// negative value and no −0, judged here by value, independently of the
// bit-pattern test SortedForm makes — and otherwise a copy, leaving the
// input alone.
func checkSorts(t *testing.T, name string, xs []float64) {
	t.Helper()
	before := slices.Clone(xs)
	want := stdlibSortedCopy(xs)
	same := func(what string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d elements, want %d", name, what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s element %d of %d is %v (%#x), sort.Float64s has %v (%#x)",
					name, what, i, len(got), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	untouched := func(what string) {
		t.Helper()
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: %s modified input element %d", name, what, i)
			}
		}
	}

	got := SortedCopy(xs)
	same("SortedCopy", got)
	untouched("SortedCopy")
	if len(xs) > 0 && &got[0] == &xs[0] {
		t.Fatalf("%s: SortedCopy aliases the input", name)
	}

	inPlace := slices.Clone(xs)
	SortInPlace(inPlace)
	same("SortInPlace", inPlace)

	sortedForm := slices.IsSorted(xs) && !slices.ContainsFunc(xs, func(x float64) bool {
		return math.IsNaN(x) || math.Signbit(x)
	})
	if SortedForm(xs) != sortedForm {
		t.Fatalf("%s: SortedForm = %t, want %t", name, !sortedForm, sortedForm)
	}
	view := SortedView(xs)
	same("SortedView", view)
	untouched("SortedView")
	if len(xs) > 0 && (&view[0] == &xs[0]) != sortedForm {
		t.Fatalf("%s: SortedView aliases the input = %t, want %t (sorted form)", name, !sortedForm, sortedForm)
	}
}

// TestSortMatchesStdlib: SortedCopy, SortInPlace and SortedView are
// sort.Float64s of a copy, bit for bit (checkSorts), on the inputs the
// radix passes take (whole seconds, continuous
// draws, constants, sorted runs, +Inf, subnormals) and on those that
// must fall back (a NaN, a negative value, a −0 — each alone among
// otherwise radix-sortable data), from the empty sample to 10⁵.
func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gens := map[string]func(i, n int) float64{
		"display seconds": func(i, n int) float64 { return LogDisplayValue(float64(rng.Int63n(1 << 22))) },
		"small integers":  func(i, n int) float64 { return float64(rng.Intn(7)) },
		"exponential":     func(i, n int) float64 { return rng.ExpFloat64() * 300 },
		"constant":        func(i, n int) float64 { return 1500 },
		"ascending":       func(i, n int) float64 { return float64(i) / 3 },
		"descending":      func(i, n int) float64 { return float64(n - i) },
		"with +Inf":       func(i, n int) float64 { return []float64{math.Inf(1), float64(i % 50), 0}[rng.Intn(3)] },
		"subnormal": func(i, n int) float64 {
			return math.Float64frombits(uint64(rng.Int63n(1 << 52)))
		},
		"all bit patterns below +Inf": func(i, n int) float64 {
			return math.Float64frombits(uint64(rng.Int63n(infBits + 1)))
		},
		"two values far apart": func(i, n int) float64 { return []float64{5e-324, math.MaxFloat64}[rng.Intn(2)] },
	}
	spoilers := map[string]float64{
		"NaN":      math.NaN(),
		"-NaN":     math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63),
		"negative": -3,
		"-0":       math.Copysign(0, -1),
		"-Inf":     math.Inf(-1),
	}
	for _, n := range []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 1000, 4097, 100000} {
		for name, gen := range gens {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i, n)
			}
			checkSorts(t, name, xs)
			checkSorts(t, name+" sorted", stdlibSortedCopy(xs))
			if n == 0 {
				continue
			}
			for sname, v := range spoilers {
				at := rng.Intn(n)
				keep := xs[at]
				xs[at] = v
				checkSorts(t, name+" + "+sname, xs)
				xs[at] = keep
			}
		}
	}
}

// FuzzSortMatchesStdlib reads the fuzz input as raw float64 bit
// patterns — any mix of NaN payloads, signed zeros, infinities and
// subnormals — repeated past the radix threshold, and holds SortedCopy,
// SortInPlace and SortedView to the stdlib result, on the input as
// given and on its sorted arrangement (where SortedView must hand back
// the caller's slice exactly when it holds no NaN, negative or −0).
func FuzzSortMatchesStdlib(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(le(1, 2, 3, 1500, 1, 86400), uint16(300))
	f.Add(le(0.5, math.Inf(1), 5e-324, 0), uint16(100))
	f.Add(le(1, math.NaN(), 2), uint16(200))
	f.Add(le(3, math.Copysign(0, -1), -7), uint16(1))
	f.Add([]byte{1, 2, 3}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, repeat uint16) {
		base := make([]float64, len(data)/8)
		for i := range base {
			base[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkSorts(t, "as given", base)
		checkSorts(t, "sorted", stdlibSortedCopy(base))
		if len(base) == 0 {
			return
		}
		// Tile the pattern, perturbing the low mantissa bits so the tiles
		// are not all duplicates, until the radix path has enough to run.
		n := min(len(base)*(int(repeat)%64+1), 1<<14)
		xs := make([]float64, 0, max(n, len(base)))
		for k := 0; len(xs) < n; k++ {
			for _, v := range base {
				xs = append(xs, math.Float64frombits(math.Float64bits(v)^uint64(k&3)))
			}
		}
		checkSorts(t, "tiled", xs)
		checkSorts(t, "tiled sorted", stdlibSortedCopy(xs))
	})
}

// checkSortByKeyBits holds SortByKeyBits to a stable comparison sort on
// the same key field, element for element — the bits outside the field
// included, which is what makes stability visible.
func checkSortByKeyBits[T ~int32 | ~uint64](t *testing.T, name string, xs []T, lo, width int) {
	t.Helper()
	mask := uint64(1)<<width - 1
	want := slices.Clone(xs)
	slices.SortStableFunc(want, func(a, b T) int {
		return cmp.Compare(uint64(a)>>lo&mask, uint64(b)>>lo&mask)
	})
	SortByKeyBits(xs, lo, width)
	if !slices.Equal(xs, want) {
		t.Fatalf("%s: %d elements by bits [%d, %d) differ from the stable comparison sort", name, len(xs), lo, lo+width)
	}
}

// TestSortByKeyBitsMatchesStableSort: whole seconds below a horizon as
// int32, and a second packed above an ordinal as uint64 (sorted on the
// second alone, the ordinal must keep its order), from the empty slice
// across the radix cut-over to 10⁵, in random, sorted, reversed and
// constant order, with key widths that do and do not fill their digits.
func TestSortByKeyBitsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 5000, 100_000} {
		for _, width := range []int{1, 7, 11, 12, 17, 22, 23, 31} {
			limit := int64(1) << width
			orders := map[string]func(i int) int64{
				"random":   func(i int) int64 { return rng.Int63n(limit) },
				"sorted":   func(i int) int64 { return int64(i) * (limit - 1) / int64(max(n, 1)) },
				"reversed": func(i int) int64 { return int64(n-i) * (limit - 1) / int64(max(n, 1)) },
				"constant": func(i int) int64 { return limit - 1 },
				"few":      func(i int) int64 { return rng.Int63n(min(limit, 3)) },
			}
			for name, key := range orders {
				seconds := make([]int32, n)
				packed := make([]uint64, n)
				for i := range seconds {
					k := key(i)
					seconds[i] = int32(k)
					// the ordinal below, noise above the key field
					packed[i] = uint64(rng.Int63n(2))<<(32+width)&(1<<63-1) | uint64(k)<<32 | uint64(i)
				}
				checkSortByKeyBits(t, name+" int32", seconds, 0, width)
				checkSortByKeyBits(t, name+" packed", packed, 32, width)
			}
		}
	}
}

// TestSortInPlaceScratch: SortInPlace allocates nothing for a slice
// already in sorted form, and one scratch slice — not the two a sorted
// copy takes — for a radix sort of any number of passes.
func TestSortInPlaceScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = LogDisplayValue(float64(rng.Int63n(1 << 22)))
	}
	shuffled := slices.Clone(xs)
	work := make([]float64, len(xs))
	if got := testing.AllocsPerRun(10, func() {
		copy(work, shuffled)
		SortInPlace(work)
	}); got != 1 {
		t.Errorf("unsorted sample: %v allocations per SortInPlace, want 1", got)
	}
	if !SortedForm(work) {
		t.Fatal("SortInPlace left the sample out of sorted form")
	}
	if got := testing.AllocsPerRun(10, func() { SortInPlace(work) }); got != 0 {
		t.Errorf("sorted sample: %v allocations per SortInPlace, want 0", got)
	}
}

// TestSortedFloats: the widened counts come back sorted exactly as the
// reference sorts them and in sorted form, so SortedView hands them to
// a reader without a copy; the counts keep their order.
func TestSortedFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 5, radixMinLen + 1, 4000} {
		counts := make([]int, n)
		widened := make([]float64, n)
		for i := range counts {
			counts[i] = 1 + int(rng.ExpFloat64()*20)
			widened[i] = float64(counts[i])
		}
		before := slices.Clone(counts)
		got := SortedFloats(counts)
		want := stdlibSortedCopy(widened)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: SortedFloats differs from the widened reference sort", n)
		}
		if !slices.Equal(counts, before) {
			t.Fatalf("n=%d: SortedFloats reordered the counts", n)
		}
		if v := SortedView(got); n > 0 && &v[0] != &got[0] {
			t.Fatalf("n=%d: SortedView copied SortedFloats' result", n)
		}
	}
}
