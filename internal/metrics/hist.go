package metrics

import (
	"math"
	"slices"
)

// subBits is how many top mantissa bits a bucket keeps beside the sign and
// the exponent. Each bucket of a normal value spans 2^-7 of its lower bound,
// so its midpoint lies within 2^-8 (0.39 %) of every value in it.
const subBits = 7

// keyShift drops the mantissa bits below the top subBits.
const keyShift = 52 - subBits

// hist is the store behind a CDF: a log-linear histogram. Only buckets that
// hold a sample are kept, as a sorted slice of (bucket, count) pairs, so Add
// is a binary search plus an increment and Merge is addition. Beside them
// sit the exact count, sum, min and max. No read changes anything, and the
// state after a set of samples is the same whatever the order they were
// added or merged in.
type hist struct {
	pairs []uint32 // see pairBase
	// sum holds the exact sum of the samples as non-overlapping partials
	// in increasing magnitude (addExact).
	sum      []float64
	n        uint64
	min, max float64
}

// A pair packs a bucket's key, offset by keyBias, above a countBits-bit
// count, so pairs sort as their buckets do and cost 4 bytes. A bucket with
// more than countMask samples continues in further pairs of its key, all but
// the last full, so the pairs depend on the per-bucket totals alone.
const (
	countBits = 13
	countMask = 1<<countBits - 1
	keyBias   = 1 << 18 // |key| < 2^18
)

// pairBase is the pair of bucket k with a zero count.
func pairBase(k int32) uint32 { return uint32(k+keyBias) << countBits }

func pairKey(p uint32) int32 { return int32(p>>countBits) - keyBias }

// bucketOf returns the key of v's bucket: its exponent and top subBits
// mantissa bits, negated for a negative v, so keys sort as values do. The
// values within 2^-1029 of zero share key 0.
func bucketOf(v float64) int32 {
	b := math.Float64bits(v)
	k := int32((b &^ (1 << 63)) >> keyShift)
	if b>>63 != 0 {
		return -k
	}
	return k
}

// mid returns the value bucket k stands for: the midpoint of its range, and
// 0 for key 0.
func mid(k int32) float64 {
	if k == 0 {
		return 0
	}
	var sign uint64
	if k < 0 {
		k, sign = -k, 1<<63
	}
	return math.Float64frombits(sign | uint64(k)<<keyShift | 1<<(keyShift-1))
}

// newHist returns an empty store; its min and max start at ±Inf, so the
// first sample sets both.
func newHist() *hist { return &hist{min: math.Inf(1), max: math.Inf(-1)} }

// add counts one finite sample.
func (h *hist) add(v float64) {
	h.min, h.max = min(h.min, v), max(h.max, v)
	h.n++
	h.sum = addExact(h.sum, v)
	h.addCount(bucketOf(v), 1)
}

func (h *hist) addCount(k int32, c uint64) {
	base, next := pairBase(k), pairBase(k+1)
	// i is one past the last pair of bucket k or of the buckets below it.
	i, _ := slices.BinarySearch(h.pairs, next)
	for c > 0 {
		if i == 0 || h.pairs[i-1] < base || h.pairs[i-1] == next-1 {
			h.pairs = slices.Insert(h.pairs, i, base)
			i++
		}
		d := min(c, uint64(next-1-h.pairs[i-1]))
		h.pairs[i-1] += uint32(d)
		c -= d
	}
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	h.min, h.max = min(h.min, o.min), max(h.max, o.max)
	h.n += o.n
	for _, p := range o.sum {
		h.sum = addExact(h.sum, p)
	}
	for _, p := range o.pairs {
		h.addCount(pairKey(p), uint64(p&countMask))
	}
}

// quantile returns the nearest-rank q-quantile: q ≤ 0 gives the exact min,
// q ≥ 1 the exact max, and any other q the midpoint of the bucket holding
// the ⌈q·n⌉-th smallest sample, clamped to [min, max].
func (h *hist) quantile(q float64) float64 {
	if !(q > 0) {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	var cum uint64
	for _, p := range h.pairs {
		if cum += uint64(p & countMask); cum >= rank {
			return min(max(mid(pairKey(p)), h.min), h.max)
		}
	}
	return h.max
}

// fraction returns the share of samples whose bucket is at or below x's:
// 0 below min, 1 from max on.
func (h *hist) fraction(x float64) float64 {
	if x < h.min {
		return 0
	}
	if x >= h.max {
		return 1
	}
	next := pairBase(bucketOf(x) + 1)
	var below uint64
	for _, p := range h.pairs {
		if p >= next {
			break
		}
		below += uint64(p & countMask)
	}
	return float64(below) / float64(h.n)
}

// addExact adds x to the exact sum held in the partials p (Shewchuk's
// grow-expansion, as Python's math.fsum keeps it): each step splits a sum
// into its rounded value and the error it dropped, so the partials always
// add up to the exact total. A total that overflows collapses to ±Inf or
// NaN, as a plain float sum would.
func addExact(p []float64, x float64) []float64 {
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if math.IsInf(hi, 0) || math.IsNaN(hi) {
			return append(p[:0], hi)
		}
		if lo := y - (hi - x); lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	return append(p[:i], x)
}

// total returns the exact sum of the partials p rounded to the nearest
// float64, ties to even, as math.fsum does.
func total(p []float64) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x, y := hi, p[n-1]
		n--
		hi = x + y
		if lo = y - (hi - x); lo != 0 {
			break
		}
	}
	// hi + lo is exact. When lo is half an ulp of hi, the partials below
	// decide the rounding: one of lo's sign pushes past the tie.
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := lo + lo
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}
