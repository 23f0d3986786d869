package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// histBound is how far a quantile may lie from the true order statistic v:
// 2^-8 of |v|, and 2^-1029 (half the width of a subnormal bucket) near zero.
func histBound(v float64) float64 { return max(math.Ldexp(math.Abs(v), -8), 0x1p-1029) }

// checkAgainstOracle compares every quantile of c that the sorted-slice
// oracle can name — q = 0, q = 1, a fixed grid and, up to a thousand
// samples, q = i/n for every rank — with the nearest-rank order statistic of
// vals.
func checkAgainstOracle(t *testing.T, c *CDF, vals []float64) {
	t.Helper()
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	n := len(sorted)
	if c.N() != n {
		t.Fatalf("N = %d, want %d", c.N(), n)
	}
	if n == 0 {
		return
	}
	if got := c.Quantile(0); got != sorted[0] {
		t.Fatalf("q=0 gives %v, want the exact min %v", got, sorted[0])
	}
	if got := c.Quantile(1); got != sorted[n-1] {
		t.Fatalf("q=1 gives %v, want the exact max %v", got, sorted[n-1])
	}
	qs := []float64{1e-9, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1 - 1e-12}
	for i := 1; i < n && n <= 1000; i++ {
		qs = append(qs, float64(i)/float64(n))
	}
	for _, q := range qs {
		want := sorted[int(math.Ceil(q*float64(n)))-1]
		if got := c.Quantile(q); !(math.Abs(got-want) <= histBound(want)) {
			t.Fatalf("q=%v of %d samples: %v, order statistic %v (error %v > bound %v)",
				q, n, got, want, math.Abs(got-want), histBound(want))
		}
	}
}

// FuzzCDFQuantileBound: every quantile lies within the histogram's bound of
// the order statistic a sorted slice gives, and q = 0 and q = 1 are exact.
// data[0] picks how many bytes make one sample, 1 to 8; each chunk is the top
// bytes of the sample's bits, the rest zero. Short chunks give few distinct
// values and full buckets, long ones values anywhere in the float range.
func FuzzCDFQuantileBound(f *testing.F) {
	f.Add([]byte{7, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a, 0x3f, 0xc0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 0x3f, 0x3f, 0xbf, 0x40, 0x00, 0x80})
	f.Add([]byte{2, 0x3f, 0xf0, 0x3f, 0xf1, 0x3f, 0xf2, 0x3f, 0xf1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := int(data[0]%8) + 1
		var c CDF
		var vals []float64
		for rest := data[1:]; len(rest) >= w; rest = rest[w:] {
			var word [8]byte
			copy(word[:], rest[:w])
			v := math.Float64frombits(binary.BigEndian.Uint64(word[:]))
			c.Add(v)
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		checkAgainstOracle(t, &c, vals)
	})
}

// TestCDFQuantileBoundOnLatencies holds the bound on a million samples of
// latency-shaped distributions: the reading the paper's RTT figures make.
func TestCDFQuantileBoundOnLatencies(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, d := range []struct {
		name string
		draw func() float64
	}{
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64()*0.8 - 2) }},
		{"uniform", func() float64 { return 0.01 + rng.Float64()*0.5 }},
		{"bimodal", func() float64 {
			if rng.IntN(10) == 0 {
				return 1 + rng.ExpFloat64()
			}
			return 0.05 + rng.ExpFloat64()*0.01
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			vals := make([]float64, 1_000_000)
			var c CDF
			for i := range vals {
				vals[i] = d.draw()
				c.Add(vals[i])
			}
			checkAgainstOracle(t, &c, vals)
		})
	}
}

// gatherBytes is what a registry holding c as one CDF source exports.
func gatherBytes(t *testing.T, c *CDF) []byte {
	t.Helper()
	r := NewRegistry()
	r.Register("rtt", func() []Sample { return CDFSamples("rtt", c) })
	var b bytes.Buffer
	if err := r.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCDFMergeOrderIsIrrelevant: a sample set split into parts and merged
// back in any order exports the same bytes — count, mean, every quantile —
// as one CDF fed every sample, and holds the same pairs, and reading a part
// between merges changes nothing. A fifth of the samples share one value, so
// its bucket spills past one pair's count.
func TestCDFMergeOrderIsIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = 0.03 + rng.ExpFloat64()*0.08
		if rng.IntN(5) == 0 {
			vals[i] = 0.0625
		}
	}
	var whole CDF
	for _, v := range vals {
		whole.Add(v)
	}
	want := gatherBytes(t, &whole)
	spilled := 0
	for _, p := range whole.h.pairs {
		if pairKey(p) == bucketOf(0.0625) {
			spilled++
		}
	}
	if spilled < 2 {
		t.Fatalf("the heavy bucket takes %d pairs, want a spill into a second", spilled)
	}

	cuts := []int{0, 7, 900, 901, 30000, 50000}
	parts := func() []*CDF {
		out := make([]*CDF, len(cuts)-1)
		for i := range out {
			out[i] = new(CDF)
			for _, v := range vals[cuts[i]:cuts[i+1]] {
				out[i].Add(v)
			}
		}
		return out
	}
	for name, merge := range map[string]func(p []*CDF) *CDF{
		"forward": func(p []*CDF) *CDF {
			var m CDF
			for _, c := range p {
				m.Merge(c)
			}
			return &m
		},
		"backward": func(p []*CDF) *CDF {
			var m CDF
			for i := len(p) - 1; i >= 0; i-- {
				m.Merge(p[i])
			}
			return &m
		},
		"into the last part, read between merges": func(p []*CDF) *CDF {
			m := p[len(p)-1]
			for _, c := range p[:len(p)-1] {
				gatherBytes(t, m)
				gatherBytes(t, c)
				m.Merge(c)
			}
			return m
		},
		"pairwise": func(p []*CDF) *CDF {
			for len(p) > 1 {
				var next []*CDF
				for i := 0; i+1 < len(p); i += 2 {
					p[i+1].Merge(p[i])
					next = append(next, p[i+1])
				}
				if len(p)%2 == 1 {
					next = append(next, p[len(p)-1])
				}
				p = next
			}
			return p[0]
		},
	} {
		m := merge(parts())
		if got := gatherBytes(t, m); !bytes.Equal(got, want) {
			t.Errorf("%s: merged export\n%s\nwant (one CDF fed every sample)\n%s", name, got, want)
		}
		if !slices.Equal(m.h.pairs, whole.h.pairs) {
			t.Errorf("%s: merged pairs differ from those of one CDF fed every sample", name)
		}
	}
}

// TestCDFMeanIsExact: the sum is kept exactly and rounded once, so a small
// sample between two large ones that cancel is not lost.
func TestCDFMeanIsExact(t *testing.T) {
	var c CDF
	for _, v := range []float64{1e16, 1, -1e16} {
		c.Add(v)
	}
	if got := c.Mean(); got != 1.0/3 {
		t.Fatalf("mean = %v, want 1/3", got)
	}
}

// TestCDFHoldsOnlyOccupiedBuckets: a CDF holds one (bucket, count) pair per
// bucket that has a sample — four pairs for four values 300 decades apart,
// not a dense array over the range between them — and MemBytes counts the
// capacity of the slices it holds.
func TestCDFHoldsOnlyOccupiedBuckets(t *testing.T) {
	var c CDF
	for _, v := range []float64{0, 1e-300, 1, 1e300} {
		c.Add(v)
	}
	h := c.h
	if len(h.pairs) != 4 {
		t.Fatalf("%d pairs, want 4", len(h.pairs))
	}
	want := int(unsafe.Sizeof(*h)) + 4*cap(h.pairs) + 8*cap(h.sum)
	if got := c.MemBytes(); got != want {
		t.Fatalf("MemBytes = %d, want %d", got, want)
	}
	if got := c.MemBytes(); got > 256 {
		t.Fatalf("MemBytes = %d for four samples, want ≤ 256", got)
	}
}
