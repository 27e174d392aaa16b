package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
)

const (
	// radixMinLen is the length below which SortInPlace and
	// SortByKeyBits leave the work to the standard library: the radix
	// passes cost a histogram per digit whatever the length, and
	// measured slower under ≈ 700 elements (BenchmarkSortSample).
	radixMinLen = 768
	// radixDigitBits is the widest digit a pass sorts on: 2048 buckets,
	// whose counters and write heads stay cache-resident.
	radixDigitBits = 11
)

// infBits is the bit pattern of +Inf. Read as unsigned integers, the
// patterns above it are the NaNs with a clear sign bit and everything
// with the sign bit set: negative values, −0 and the other NaNs.
const infBits = 0x7FF0000000000000

// sampleSorts counts the SortInPlace calls (SortedCopy's included) of
// the program's lifetime; SampleSorts reads it.
var sampleSorts atomic.Int64

// SampleSorts returns how many samples SortInPlace and SortedCopy have
// been asked to sort since the program started — a work counter that
// does not depend on the machine: a consumer that sorts a sample it
// could have read in place shows as one count more.
func SampleSorts() int64 { return sampleSorts.Load() } //lsm:keep -- calibrate/budget_test.go and core/samples_test.go count the sorts with it

// SortedForm reports whether xs is ascending by IEEE-754 bit pattern
// and holds no NaN, no negative value and no −0. On that domain the
// patterns, read as unsigned integers, order exactly as the values do,
// and two elements that compare equal are the same pattern, so there
// is one ascending arrangement and every correct sort produces it: a
// slice in sorted form is, element for element, what SortedCopy and
// sort.Float64s would make of it.
func SortedForm(xs []float64) bool {
	var prev uint64
	for _, x := range xs {
		b := math.Float64bits(x)
		if b < prev || b > infBits {
			return false
		}
		prev = b
	}
	return true
}

// SortedView returns xs itself when it is in sorted form (SortedForm)
// and SortedCopy(xs) otherwise: either way the elements of xs in
// ascending order, exactly as SortedCopy has them. The result must
// only be read — it may be the caller's slice. It is how a consumer
// reads a sample its producer already sorted without copying it.
func SortedView(xs []float64) []float64 {
	if SortedForm(xs) {
		return xs
	}
	return SortedCopy(xs)
}

// SortedCopy returns the elements of xs in ascending order in a new
// slice, element for element what sort.Float64s leaves in a copy of xs;
// xs itself is only read.
func SortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	SortInPlace(out)
	return out
}

// SortedFloats returns the counts widened to float64 and sorted
// ascending, in sorted form (SortedForm) when no count is negative, so
// that the KS tests and NewECDF read it without another copy. counts
// itself is only read.
func SortedFloats(counts []int) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c)
	}
	SortInPlace(out)
	return out
}

// SortInPlace sorts xs ascending, leaving exactly what sort.Float64s
// (and SortedCopy) would: bit for bit, NaN payloads and the sign of
// zero included.
//
// A slice already in sorted form (SortedForm) is left as it is after
// one read. Otherwise a sample with neither NaNs nor negative values
// nor −0 — every timing and size sample the characterization takes —
// is sorted by LSD radix passes over the IEEE-754 bit patterns, whose
// order on that domain is the values' order. Only the bits some pair
// of elements differs in are sorted on: whole-second readings below
// 2²² span 33 of the 64, three passes, which alternate between xs and
// one scratch slice of its length. Anything else — and any sample too
// short to repay the histograms — goes to sort.Float64s.
//
//lsm:hotpath
func SortInPlace(xs []float64) {
	sampleSorts.Add(1)
	var prev, or uint64
	and := ^uint64(0)
	sorted, radix := true, true
	for _, x := range xs {
		b := math.Float64bits(x)
		if b > infBits {
			radix = false
			break
		}
		if b < prev {
			sorted = false
		}
		prev = b
		or |= b
		and &= b
	}
	if radix && sorted {
		return
	}
	if !radix || len(xs) < radixMinLen || len(xs) > math.MaxUint32 {
		sort.Float64s(xs)
		return
	}

	// Split the differing bits [lo, lo+width) into equal digits; an
	// unsorted slice has at least one.
	diff := or ^ and
	lo := bits.TrailingZeros64(diff)
	width := 64 - bits.LeadingZeros64(diff) - lo
	passes := (width + radixDigitBits - 1) / radixDigitBits
	digit := (width + passes - 1) / passes
	mask := uint64(1)<<digit - 1

	// One walk fills every pass's histogram. Three full-width digits —
	// enough for whole seconds — count on the stack.
	var stack [3 << radixDigitBits]uint32
	counts := stack[:]
	if passes<<digit > len(stack) {
		counts = make([]uint32, passes<<digit)
	}
	for _, x := range xs {
		key := math.Float64bits(x) >> lo
		for p := 0; p < passes; p++ {
			counts[p<<digit|int(key&mask)]++
			key >>= digit
		}
	}

	// Each pass scatters src into the other of xs and scratch by one
	// digit, stably; a digit every element shares is skipped.
	var scratch []float64
	src := xs
	for p := 0; p < passes; p++ {
		heads := counts[p<<digit : (p+1)<<digit]
		shift := lo + p*digit
		if int(heads[math.Float64bits(xs[0])>>shift&mask]) == len(xs) {
			continue // every element carries the same digit here
		}
		var sum uint32
		for d, c := range heads {
			heads[d] = sum
			sum += c
		}
		if scratch == nil {
			scratch = make([]float64, len(xs))
		}
		dst := scratch
		if &src[0] == &scratch[0] {
			dst = xs
		}
		for _, x := range src {
			d := math.Float64bits(x) >> shift & mask
			dst[heads[d]] = x
			heads[d]++
		}
		src = dst
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// SortByKeyBits sorts xs in place, ascending and stably, by the
// unsigned value of bits [lo, lo+width) of each element; the other
// bits ride along. Elements must not be negative. It backs the event
// sweeps — whole seconds below a horizon, or a second packed above an
// ordinal — where the key is bounded and n may reach the bound: LSD
// radix passes over 11-bit digits, O(n) whatever the order, after one
// walk that returns at once on input already in order (a start column
// read off a start-sorted trace is).
//
//lsm:hotpath
func SortByKeyBits[T ~int32 | ~uint64](xs []T, lo, width int) {
	mask := uint64(1)<<width - 1
	sorted := true
	for i := 1; i < len(xs); i++ {
		if uint64(xs[i])>>lo&mask < uint64(xs[i-1])>>lo&mask {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if len(xs) < radixMinLen || len(xs) > math.MaxUint32 {
		slices.SortStableFunc(xs, func(a, b T) int {
			return cmp.Compare(uint64(a)>>lo&mask, uint64(b)>>lo&mask)
		})
		return
	}

	// Equal digits, as in SortInPlace; one walk fills every histogram.
	passes := (width + radixDigitBits - 1) / radixDigitBits
	digit := (width + passes - 1) / passes
	dmask := uint64(1)<<digit - 1
	var stack [3 << radixDigitBits]uint32
	counts := stack[:]
	if passes<<digit > len(stack) {
		counts = make([]uint32, passes<<digit)
	}
	for _, x := range xs {
		key := uint64(x) >> lo & mask
		for p := 0; p < passes; p++ {
			counts[p<<digit|int(key&dmask)]++
			key >>= digit
		}
	}

	src, dst := xs, make([]T, len(xs))
	for p := 0; p < passes; p++ {
		heads := counts[p<<digit : (p+1)<<digit]
		shift := p * digit
		if int(heads[(uint64(xs[0])>>lo&mask)>>shift&dmask]) == len(xs) {
			continue // every element carries the same digit here
		}
		var sum uint32
		for d, c := range heads {
			heads[d] = sum
			sum += c
		}
		for _, x := range src {
			d := (uint64(x) >> lo & mask) >> shift & dmask
			dst[heads[d]] = x
			heads[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
