// Package sketch implements a mergeable quantile sketch: a merging
// t-digest in the style of Dunning's MergingDigest, tuned for the
// platform's determinism contract. All state updates are pure functions of
// the insertion order — sorting uses sort.Float64s on plain values, the
// compaction pass walks a fixed-order merged stream, and no randomness or
// wall-clock input is consumed — so the same sample stream always yields
// bit-identical centroids, quantiles, and serialized bytes, on every GOARCH:
// each product that feeds an add is rounded by an explicit conversion, which
// keeps the compiler from fusing it, and the scale function uses the
// package's own sin and asin (trig.go) rather than math's. That is what
// lets sketch-backed metrics ride inside the byte-identical export
// equivalence suites (wheel-vs-heap engines, worker counts 1/3/8).
//
// Memory is O(compression): with the default compression of 200 a sketch
// holds at most a few hundred centroids plus a bounded insertion buffer —
// ~20 KiB is the ceiling, reached once a stream has filled the buffer; the
// buffer grows with the stream, so the first sample costs 128 B and a few
// dozen samples a few hundred — versus the 8 MB an exact CDF needs for a
// million float64 samples. Accuracy at the default compression is well inside 1%
// relative error at p50/p95/p99 on million-sample latency-shaped
// distributions — the bar CI enforces (see TestSketchAccuracyGate).
package sketch

import (
	"encoding/binary"
	"math"
	"sort"
)

// DefaultCompression is the δ parameter of the t-digest: higher keeps more
// centroids (more memory, better accuracy). 200 holds p50/p95/p99 relative
// error well under 1% on smooth distributions while staying a few-hundred
// centroids small.
const DefaultCompression = 200

// bufFactor sizes the unsorted insertion buffer as a multiple of the
// compression: larger buffers amortize the O(k log k) sort over more Adds.
const bufFactor = 8

// bufMin is the insertion buffer's first capacity; it doubles from there up
// to bufLimit.
const bufMin = 16

// Sketch is a mergeable quantile sketch. The zero value is not usable; use
// New or NewCompression.
type Sketch struct {
	compression float64

	// Processed centroids, sorted by mean. means and weights are parallel.
	means   []float64
	weights []float64
	nProc   float64 // total weight of processed centroids

	// Unprocessed singleton samples, compacted when full.
	buf []float64

	count    uint64 // samples ever added (including buffered)
	sum      float64
	min, max float64
}

// New creates a sketch with the default compression.
func New() *Sketch { return NewCompression(DefaultCompression) }

// NewCompression creates a sketch with compression δ (clamped to ≥ 20).
func NewCompression(delta float64) *Sketch {
	if delta < 20 {
		delta = 20
	}
	return &Sketch{
		compression: delta,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add inserts one sample. NaN samples are ignored (they carry no quantile
// information and would poison every centroid mean).
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if len(s.buf) == cap(s.buf) {
		// Double, never past bufLimit: append's own growth would overshoot.
		n := min(max(2*cap(s.buf), bufMin), s.bufLimit())
		s.buf = append(make([]float64, 0, n), s.buf...)
	}
	s.buf = append(s.buf, v)
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if len(s.buf) == s.bufLimit() {
		s.flush()
	}
}

// bufLimit is the buffered-sample count that triggers a flush and the largest
// capacity the buffer ever has. Flushing at the limit, not at the capacity,
// keeps the compaction points — and with them every centroid — independent of
// how the buffer grew.
func (s *Sketch) bufLimit() int { return bufFactor * int(s.compression) }

// N returns the number of samples added.
func (s *Sketch) N() int { return int(s.count) }

// Sum returns the exact sum of all samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact arithmetic mean, and false when empty.
func (s *Sketch) Mean() (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	return s.sum / float64(s.count), true
}

// Min returns the exact minimum, and false when empty.
func (s *Sketch) Min() (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	return s.min, true
}

// Max returns the exact maximum, and false when empty.
func (s *Sketch) Max() (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	return s.max, true
}

// Centroids returns the current processed-centroid count (diagnostics).
func (s *Sketch) Centroids() int { return len(s.means) }

// MemBytes estimates the sketch's steady-state heap footprint: the backing
// arrays it retains across its lifetime. TestSketchMemBounded compares it
// with the 8 bytes per sample a sorted-sample store would hold.
func (s *Sketch) MemBytes() int {
	return 8*(cap(s.means)+cap(s.weights)+cap(s.buf)) + 64
}

// k is the t-digest k1 scale function: quantile space warped so the bound
// "one unit of k per centroid" concentrates resolution at the tails.
func (s *Sketch) k(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return s.compression / (2 * math.Pi) * asin(2*q-1)
}

// kInv inverts k.
func (s *Sketch) kInv(k float64) float64 {
	return (sin(k*2*math.Pi/s.compression) + 1) / 2
}

// flush sorts the insertion buffer and compacts it with the processed
// centroids in one deterministic merge pass.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	s.compact(s.buf, nil)
	s.buf = s.buf[:0]
}

// compact merges the current centroids with an additional sorted stream of
// (mean, weight) pairs (weights nil = all singletons) into a fresh centroid
// list bounded by the k1 criterion. The pass is order-deterministic: ties
// between the two streams take the existing centroid first.
func (s *Sketch) compact(ms, ws []float64) {
	total := s.nProc
	if ws == nil {
		total += float64(len(ms))
	} else {
		for _, w := range ws {
			total += w
		}
	}
	if total == 0 {
		return
	}
	outM := make([]float64, 0, len(s.means)+1)
	outW := make([]float64, 0, len(s.weights)+1)

	// next() streams the two sorted inputs in merged order.
	i, j := 0, 0
	next := func() (m, w float64, ok bool) {
		iOK, jOK := i < len(s.means), j < len(ms)
		switch {
		case iOK && (!jOK || s.means[i] <= ms[j]):
			m, w = s.means[i], s.weights[i]
			i++
		case jOK:
			m = ms[j]
			if ws == nil {
				w = 1
			} else {
				w = ws[j]
			}
			j++
		default:
			return 0, 0, false
		}
		return m, w, true
	}

	curM, curW, ok := next()
	if !ok {
		return
	}
	wSoFar := 0.0
	limit := total * s.kInv(s.k(0)+1)
	for {
		m, w, ok := next()
		if !ok {
			break
		}
		if wSoFar+curW+w <= limit {
			// Absorb into the current centroid. The mean is updated as a
			// convex combination (not sum-of-products, which overflows for
			// values near ±MaxFloat64).
			tot := curW + w
			curM = float64(curM*(curW/tot)) + float64(m*(w/tot))
			curW = tot
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		wSoFar += curW
		limit = total * s.kInv(s.k(wSoFar/total)+1)
		curM, curW = m, w
	}
	outM = append(outM, curM)
	outW = append(outW, curW)
	s.means, s.weights, s.nProc = outM, outW, total
}

// Merge folds other into s. Both sketches' buffered samples are processed
// first; other is unchanged. Merging is deterministic: the centroid streams
// are combined in sorted order with s's centroids winning ties.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.count == 0 {
		return
	}
	s.flush()
	other.flush()
	s.compact(other.means, other.weights)
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Quantile returns the q-quantile (q clamped to [0,1]) by piecewise-linear
// interpolation over the centroid midpoints, with the exact min and max as
// endpoints. ok is false when the sketch is empty.
func (s *Sketch) Quantile(q float64) (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	s.flush()
	if q <= 0 {
		return s.min, true
	}
	if q >= 1 {
		return s.max, true
	}
	n := s.nProc
	t := q * n
	// Cumulative midpoint of centroid i: C_i = Σw_{<i} + w_i/2.
	cum := 0.0
	prevPos, prevVal := 0.0, s.min
	for i := range s.means {
		pos := cum + float64(s.weights[i]/2)
		if t <= pos {
			return lerp(prevPos, prevVal, pos, s.means[i], t), true
		}
		cum += s.weights[i]
		prevPos, prevVal = pos, s.means[i]
	}
	return lerp(prevPos, prevVal, n, s.max, t), true
}

// Fraction returns the approximate CDF value F(x): the fraction of samples
// ≤ x, by the inverse of the Quantile interpolation. ok is false when empty.
func (s *Sketch) Fraction(x float64) (float64, bool) {
	if s.count == 0 {
		return 0, false
	}
	s.flush()
	if x < s.min {
		return 0, true
	}
	if x >= s.max {
		return 1, true
	}
	n := s.nProc
	cum := 0.0
	prevPos, prevVal := 0.0, s.min
	for i := range s.means {
		pos := cum + float64(s.weights[i]/2)
		if x <= s.means[i] {
			return lerp(prevVal, prevPos, s.means[i], pos, x) / n, true
		}
		cum += s.weights[i]
		prevPos, prevVal = pos, s.means[i]
	}
	return lerp(prevVal, prevPos, s.max, n, x) / n, true
}

// lerp interpolates y linearly between (x0,y0) and (x1,y1) at x. Callers
// guarantee y0 ≤ y1; the result is clamped into [y0, y1] and is weakly
// monotone in x, so chained segments never produce a quantile inversion.
// Degenerate zero-width segments return the shared endpoint. When the
// y-span overflows (endpoints near ±MaxFloat64 with opposite signs), the
// convex-combination form is used instead — bounded by the endpoints and
// still weakly monotone.
func lerp(x0, y0, x1, y1, x float64) float64 {
	if x1 <= x0 || y1 <= y0 {
		return y1
	}
	f := (x - x0) / (x1 - x0)
	if math.IsNaN(f) { // Inf/Inf: the x-span overflowed too
		f = 0.5
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	var v float64
	if d := y1 - y0; !math.IsInf(d, 0) {
		v = y0 + float64(f*d)
	} else {
		v = float64(y0*(1-f)) + float64(y1*f)
	}
	if v < y0 {
		v = y0
	}
	if v > y1 {
		v = y1
	}
	return v
}

// Serialization format (big-endian, fixed width):
//
//	magic "tdg1" | compression f64 | count u64 | sum f64 | min f64 |
//	max f64 | nCentroids u32 | nCentroids × (mean f64, weight f64)
//
// Buffered samples are flushed first, so the encoding is canonical: two
// sketches with identical state serialize to identical bytes.
var magic = [4]byte{'t', 'd', 'g', '1'}

// Serialize encodes the sketch canonically.
func (s *Sketch) Serialize() []byte {
	s.flush()
	out := make([]byte, 0, 4+8*5+4+16*len(s.means))
	out = append(out, magic[:]...)
	out = appendF64(out, s.compression)
	out = binary.BigEndian.AppendUint64(out, s.count)
	out = appendF64(out, s.sum)
	out = appendF64(out, s.min)
	out = appendF64(out, s.max)
	out = binary.BigEndian.AppendUint32(out, uint32(len(s.means)))
	for i := range s.means {
		out = appendF64(out, s.means[i])
		out = appendF64(out, s.weights[i])
	}
	return out
}

func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
