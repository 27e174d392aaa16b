package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
)

const (
	// radixMinLen is the length below which SortedCopy and
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

// SortedCopy returns the elements of xs in ascending order in a new
// slice, element for element what sort.Float64s leaves in a copy of xs;
// xs itself is only read.
//
// A sample with neither NaNs nor negative values nor −0 — every timing
// and size sample the characterization takes — is sorted by LSD radix
// passes over the IEEE-754 bit patterns. On that domain the patterns,
// read as unsigned integers, order exactly as the values do, and two
// elements that compare equal are the same pattern, so there is one
// ascending arrangement and any correct sort produces it. Only the
// bits some pair of elements differs in are sorted on: whole-second
// readings below 2²² span 33 of the 64, three passes. Anything else —
// and any sample too short to repay the histograms — is copied and
// handed to sort.Float64s.
//
//lsm:hotpath
func SortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var or uint64
	and := ^uint64(0)
	radix := len(xs) >= radixMinLen && len(xs) <= math.MaxUint32
	if radix {
		for _, x := range xs {
			b := math.Float64bits(x)
			or |= b
			and &= b
			if b > infBits {
				radix = false
				break
			}
		}
	}
	diff := or ^ and
	if !radix || diff == 0 {
		copy(out, xs)
		if !radix {
			sort.Float64s(out)
		}
		return out
	}

	// Split the differing bits [lo, lo+width) into equal digits.
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

	// Each pass scatters src into dst by one digit, stably. The first
	// reads the caller's slice; the rest ping-pong between out and a
	// second buffer, allocated only when a second pass runs. The digit
	// holding the highest differing bit is never skipped, so src ends as
	// one of the two buffers.
	src, dst := xs, out
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
		if dst == nil {
			dst = make([]float64, len(xs))
		}
		for _, x := range src {
			d := math.Float64bits(x) >> shift & mask
			dst[heads[d]] = x
			heads[d]++
		}
		if &src[0] == &xs[0] {
			src, dst = out, nil
		} else {
			src, dst = dst, src
		}
	}
	return src
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

	// Equal digits, as in SortedCopy; one walk fills every histogram.
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
