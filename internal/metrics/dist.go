package metrics

import (
	"math"
	"sort"
	"sync/atomic"

	"blemesh/internal/metrics/sketch"
)

// Distribution is the backing store behind CDF: anything that can absorb
// samples and answer quantile/moment queries. Two implementations exist —
// the mergeable quantile sketch (internal/metrics/sketch, the default:
// O(compression) memory, ≤1% quantile error) and the exact sorted-sample
// store (O(n) memory, exact answers, selectable via SetExact for
// equivalence testing).
//
// Query methods return ok=false when the distribution is empty; they never
// return NaN for an empty store and never panic.
type Distribution interface {
	Add(v float64)
	N() int
	Quantile(q float64) (float64, bool)
	Mean() (float64, bool)
	Min() (float64, bool)
	Max() (float64, bool)
	Fraction(x float64) (float64, bool)
	MemBytes() int
}

// exactCDF selects the exact backend for CDFs created after the flip.
// Atomic because parallel sweep workers build networks (and their CDFs)
// concurrently.
var exactCDF atomic.Bool

// SetExact selects the exact sorted-sample backend (true) or the default
// quantile sketch (false) for CDFs that take their first sample after the
// call. A CDF latches its backend at first Add and keeps it for life, so
// flip the mode before building the network under measurement.
func SetExact(on bool) { exactCDF.Store(on) }

// ExactMode reports whether new CDFs will use the exact backend.
func ExactMode() bool { return exactCDF.Load() }

// newDistribution picks the backend for a fresh CDF per the current mode.
func newDistribution() Distribution {
	if ExactMode() {
		return &exactDist{}
	}
	return sketch.New()
}

// exactDist is the exact backend: every sample retained, quantiles by
// linear interpolation over the sorted slice.
//
// Sorting is incremental: samples[:nSorted] stays sorted across queries and
// only the appendix added since the last query is sorted and merged in. The
// harness interleaves Add with Quantile/ASCII (per-phase reports over a
// growing run), where re-sorting the whole slice on every query is the
// dominant cost.
type exactDist struct {
	samples []float64
	nSorted int // samples[:nSorted] is sorted
}

func (c *exactDist) Add(v float64) { c.samples = append(c.samples, v) }

func (c *exactDist) N() int { return len(c.samples) }

// sort establishes the sorted invariant over all samples. Cost is
// O(k log k + n) for k samples added since the last query — a no-op when
// nothing was added.
func (c *exactDist) sort() {
	if c.nSorted == len(c.samples) {
		return
	}
	appendix := c.samples[c.nSorted:]
	sort.Float64s(appendix)
	if c.nSorted > 0 {
		merged := make([]float64, 0, len(c.samples))
		i, j := 0, 0
		prefix := c.samples[:c.nSorted]
		for i < len(prefix) && j < len(appendix) {
			if prefix[i] <= appendix[j] {
				merged = append(merged, prefix[i])
				i++
			} else {
				merged = append(merged, appendix[j])
				j++
			}
		}
		merged = append(merged, prefix[i:]...)
		merged = append(merged, appendix[j:]...)
		c.samples = merged
	}
	c.nSorted = len(c.samples)
}

func (c *exactDist) Quantile(q float64) (float64, bool) {
	if len(c.samples) == 0 {
		return 0, false
	}
	c.sort()
	if q <= 0 {
		return c.samples[0], true
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1], true
	}
	pos := q * float64(len(c.samples)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.samples) {
		return c.samples[len(c.samples)-1], true
	}
	return c.samples[lo]*(1-frac) + c.samples[lo+1]*frac, true
}

func (c *exactDist) Mean() (float64, bool) {
	if len(c.samples) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples)), true
}

func (c *exactDist) Min() (float64, bool) {
	if len(c.samples) == 0 {
		return 0, false
	}
	c.sort()
	return c.samples[0], true
}

func (c *exactDist) Max() (float64, bool) {
	if len(c.samples) == 0 {
		return 0, false
	}
	c.sort()
	return c.samples[len(c.samples)-1], true
}

func (c *exactDist) Fraction(x float64) (float64, bool) {
	if len(c.samples) == 0 {
		return 0, false
	}
	c.sort()
	i := sort.SearchFloat64s(c.samples, x)
	return float64(i) / float64(len(c.samples)), true
}

func (c *exactDist) MemBytes() int { return 8*cap(c.samples) + 48 }

// merge appends another exact store's samples in their stored order (which
// is itself deterministic), preserving merge determinism.
func (c *exactDist) merge(o *exactDist) {
	c.sort()
	o.sort()
	c.samples = append(c.samples, o.samples...)
	// Both halves are sorted; one incremental merge restores the invariant.
	c.nSorted = len(c.samples) - len(o.samples)
	c.sort()
}

// nanIfEmpty converts an ok-variant result to the registry's export
// convention: NaN (rendered as JSON null / CSV NaN) for an empty source,
// keeping export bytes identical to pre-sketch builds.
func nanIfEmpty(v float64, ok bool) float64 {
	if !ok {
		return math.NaN()
	}
	return v
}
