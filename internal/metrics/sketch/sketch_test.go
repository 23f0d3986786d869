package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// exactQuantile mirrors metrics.CDF's linear-interpolation quantile so the
// accuracy gate compares against the repo's own exact definition.
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// relErr is the relative error of got vs want, safe for tiny want.
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if math.Abs(want) < 1e-12 {
		return d
	}
	return d / math.Abs(want)
}

// synthetic returns 1e6 latency-shaped samples from a named distribution,
// deterministically (fixed seed per name).
func synthetic(name string, n int) []float64 {
	rng := rand.New(rand.NewSource(int64(len(name))*7919 + 42))
	out := make([]float64, n)
	for i := range out {
		switch name {
		case "uniform":
			out[i] = rng.Float64() * 10
		case "exponential":
			out[i] = rng.ExpFloat64() * 0.05 // mean 50ms, latency-shaped
		case "lognormal":
			out[i] = math.Exp(rng.NormFloat64()*0.7 - 3) // median ~50ms
		case "bimodal":
			if rng.Float64() < 0.9 {
				out[i] = 0.010 + rng.Float64()*0.005
			} else {
				out[i] = 0.200 + rng.Float64()*0.100 // retransmission tail
			}
		default:
			panic("unknown distribution " + name)
		}
	}
	return out
}

// TestSketchAccuracyGate is the CI accuracy gate: p50/p95/p99 relative
// error ≤ 1% against the exact CDF on 1e6 synthetic samples, across several
// latency-shaped distributions.
func TestSketchAccuracyGate(t *testing.T) {
	const n = 1_000_000
	for _, dist := range []string{"uniform", "exponential", "lognormal", "bimodal"} {
		samples := synthetic(dist, n)
		s := New()
		for _, v := range samples {
			s.Add(v)
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.50, 0.95, 0.99} {
			got, ok := s.Quantile(q)
			if !ok {
				t.Fatalf("%s: Quantile(%v) not ok", dist, q)
			}
			want := exactQuantile(sorted, q)
			if re := relErr(got, want); re > 0.01 {
				t.Errorf("%s p%d: sketch %.6g exact %.6g rel err %.4f > 1%%",
					dist, int(q*100), got, want, re)
			}
		}
	}
}

// TestSketchDeterministicCentroids: the same insertion order must produce
// byte-identical serializations — the property that lets sketch-backed
// metrics live inside byte-identical export suites.
func TestSketchDeterministicCentroids(t *testing.T) {
	build := func() *Sketch {
		s := New()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300_000; i++ {
			s.Add(rng.ExpFloat64())
		}
		return s
	}
	a, b := build().Serialize(), build().Serialize()
	if !bytes.Equal(a, b) {
		t.Fatalf("same insertion order produced different serializations (%d vs %d bytes)", len(a), len(b))
	}
}

// TestSketchMergeMatchesBulk: merging shards must stay within the accuracy
// envelope of a single bulk sketch over the concatenated stream.
func TestSketchMergeMatchesBulk(t *testing.T) {
	const n = 200_000
	samples := synthetic("lognormal", n)
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)

	merged := New()
	for shard := 0; shard < 8; shard++ {
		part := New()
		for i := shard; i < n; i += 8 {
			part.Add(samples[i])
		}
		merged.Merge(part)
	}
	if merged.N() != n {
		t.Fatalf("merged N=%d want %d", merged.N(), n)
	}
	if got, _ := merged.Mean(); relErr(got, mean(samples)) > 1e-9 {
		t.Errorf("merged mean %.9g want %.9g (mean must stay exact)", got, mean(samples))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, _ := merged.Quantile(q)
		want := exactQuantile(sorted, q)
		if re := relErr(got, want); re > 0.02 {
			t.Errorf("merged p%d: %.6g exact %.6g rel err %.4f > 2%%", int(q*100), got, want, re)
		}
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// TestSketchMergeDeterministic: merging the same shard sequence twice gives
// identical bytes.
func TestSketchMergeDeterministic(t *testing.T) {
	build := func() []byte {
		merged := New()
		for shard := 0; shard < 5; shard++ {
			part := New()
			rng := rand.New(rand.NewSource(int64(shard)))
			for i := 0; i < 50_000; i++ {
				part.Add(rng.NormFloat64())
			}
			merged.Merge(part)
		}
		return merged.Serialize()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("same merge order produced different serializations")
	}
}

func TestSketchSerializeRoundTrip(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		s.Add(rng.ExpFloat64() * 0.1)
	}
	b := s.Serialize()
	// The layout: magic, compression, count, sum, min, max, the centroid
	// count, then a mean and a weight per centroid, all big-endian.
	f64 := func(off int) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b[off:])) }
	if string(b[:4]) != string(magic[:]) {
		t.Fatalf("magic %q", b[:4])
	}
	if n := binary.BigEndian.Uint64(b[12:]); n != uint64(s.N()) || f64(20) != s.Sum() {
		t.Fatalf("header N/Sum %d/%g, sketch %d/%g", n, f64(20), s.N(), s.Sum())
	}
	means, weights := s.means, s.weights // flushed by Serialize
	nc := int(binary.BigEndian.Uint32(b[44:]))
	if nc != len(means) || len(b) != 48+16*nc {
		t.Fatalf("%d centroids in %d bytes, sketch has %d", nc, len(b), len(means))
	}
	for i := range means {
		if f64(48+16*i) != means[i] || f64(56+16*i) != weights[i] {
			t.Fatalf("centroid %d: %g/%g, sketch %g/%g", i, f64(48+16*i), f64(56+16*i), means[i], weights[i])
		}
	}
	if !bytes.Equal(s.Serialize(), b) {
		t.Fatal("a second Serialize of an unchanged sketch differs")
	}
}

func TestSketchEmptyAndSingle(t *testing.T) {
	s := New()
	if _, ok := s.Quantile(0.5); ok {
		t.Error("empty sketch Quantile ok=true")
	}
	if _, ok := s.Mean(); ok {
		t.Error("empty sketch Mean ok=true")
	}
	if _, ok := s.Min(); ok {
		t.Error("empty sketch Min ok=true")
	}
	if _, ok := s.Max(); ok {
		t.Error("empty sketch Max ok=true")
	}
	if _, ok := s.Fraction(1); ok {
		t.Error("empty sketch Fraction ok=true")
	}
	if s.N() != 0 {
		t.Errorf("empty N=%d", s.N())
	}

	s.Add(3.5)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if v, ok := s.Quantile(q); !ok || v != 3.5 {
			t.Errorf("single-sample Quantile(%v)=%v,%v want 3.5,true", q, v, ok)
		}
	}
	if v, _ := s.Mean(); v != 3.5 {
		t.Errorf("single-sample Mean=%v", v)
	}
	if v, _ := s.Min(); v != 3.5 {
		t.Errorf("single-sample Min=%v", v)
	}
	if v, _ := s.Max(); v != 3.5 {
		t.Errorf("single-sample Max=%v", v)
	}

	// NaN is dropped silently.
	s.Add(math.NaN())
	if s.N() != 1 {
		t.Errorf("NaN was counted: N=%d", s.N())
	}
}

// TestSketchFractionMidpoints pins the 4-sample midpoint interpolation
// metrics.CDF's FractionBelow test relies on: F(2.5) over {1,2,3,4} = 0.5.
func TestSketchFractionMidpoints(t *testing.T) {
	s := New()
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if f, ok := s.Fraction(2.5); !ok || math.Abs(f-0.5) > 1e-9 {
		t.Errorf("Fraction(2.5)=%v,%v want 0.5,true", f, ok)
	}
	if f, _ := s.Fraction(0); f != 0 {
		t.Errorf("Fraction(0)=%v want 0", f)
	}
	if f, _ := s.Fraction(5); f != 1 {
		t.Errorf("Fraction(5)=%v want 1", f)
	}
}

// TestQuickSketchQuantileMonotone: quantiles are monotone in q and bounded
// by [min, max] for arbitrary sample sets.
func TestQuickSketchQuantileMonotone(t *testing.T) {
	f := func(seed int64, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(k)*37
		s := New()
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 100
			s.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v, ok := s.Quantile(q)
			if !ok || v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSketchMemBounded: the acceptance criterion's memory shape — a sketch
// over 1e6 samples must be ≥10× smaller than the exact 8 MB sample slice.
func TestSketchMemBounded(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1_000_000; i++ {
		s.Add(rng.ExpFloat64())
	}
	exact := 8 * 1_000_000
	if got := s.MemBytes(); got*10 > exact {
		t.Fatalf("sketch MemBytes=%d, want ≥10× below exact %d", got, exact)
	}
	if c := s.Centroids(); c > 4*DefaultCompression {
		t.Errorf("centroid count %d exceeds 4δ=%d", c, 4*DefaultCompression)
	}
}

// preallocated is the reference the lazily grown buffer is held to: a sketch
// whose insertion buffer has its full capacity from the start, as every
// sketch's had before the buffer grew with the stream, so that "full" and
// "at the flush limit" are the same moment.
func preallocated(delta float64) *Sketch {
	s := NewCompression(delta)
	s.buf = make([]float64, 0, s.bufLimit())
	return s
}

// sameSketch compares everything a sketch exports. Quantile and Serialize
// flush, identically on both sides.
func sameSketch(t *testing.T, what string, got, want *Sketch) {
	t.Helper()
	if got.N() != want.N() || got.Sum() != want.Sum() {
		t.Fatalf("%s: N/Sum %d/%v, reference %d/%v", what, got.N(), got.Sum(), want.N(), want.Sum())
	}
	gmin, gok := got.Min()
	wmin, wok := want.Min()
	gmax, _ := got.Max()
	wmax, _ := want.Max()
	if gok != wok || gmin != wmin || gmax != wmax {
		t.Fatalf("%s: min/max %v/%v, reference %v/%v", what, gmin, gmax, wmin, wmax)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		g, _ := got.Quantile(q)
		w, _ := want.Quantile(q)
		if g != w {
			t.Fatalf("%s: p%g = %v, reference %v", what, 100*q, g, w)
		}
	}
	if !bytes.Equal(got.Serialize(), want.Serialize()) {
		t.Fatalf("%s: serialized bytes differ from the reference (%d vs %d centroids)", what, got.Centroids(), want.Centroids())
	}
}

// TestLazyBufferIdentity: growing the insertion buffer with the stream must
// not move a compaction point. Stream lengths sit on both sides of the first
// capacity (16) and of the flush limit (1 600).
func TestLazyBufferIdentity(t *testing.T) {
	fill := func(s *Sketch, vals []float64) *Sketch {
		for _, v := range vals {
			s.Add(v)
		}
		return s
	}
	vals := synthetic("lognormal", 100_000)
	for _, n := range []int{0, 1, 15, 16, 17, 1599, 1600, 1601, 3200, 100_000} {
		sameSketch(t, fmt.Sprintf("stream of %d", n), fill(New(), vals[:n]), fill(preallocated(DefaultCompression), vals[:n]))
	}
	// Merge flushes both sides' partly filled buffers, one past its first
	// compaction and one short of it.
	got := fill(New(), vals[:2500])
	got.Merge(fill(New(), vals[2500:3200]))
	want := fill(preallocated(DefaultCompression), vals[:2500])
	want.Merge(fill(preallocated(DefaultCompression), vals[2500:3200]))
	sameSketch(t, "merge of 2500 and 700", got, want)
	// A compression whose limit is not a power of two times the first capacity.
	sameSketch(t, "δ=33.3", fill(NewCompression(33.3), vals[:5000]), fill(preallocated(33.3), vals[:5000]))
}

// TestBufferNeverExceedsLimit: the buffer stops growing at bufFactor ×
// compression, so a sketch that has seen a full buffer retains exactly what
// one with a preallocated buffer does, and getting there takes a handful of
// allocations.
func TestBufferNeverExceedsLimit(t *testing.T) {
	vals := synthetic("exponential", 5000)
	for _, delta := range []float64{20, 33.3, DefaultCompression} {
		s, ref := NewCompression(delta), preallocated(delta)
		for i, v := range vals {
			s.Add(v)
			ref.Add(v)
			if cap(s.buf) > s.bufLimit() {
				t.Fatalf("δ=%v: buffer capacity %d after %d samples, limit %d", delta, cap(s.buf), i+1, s.bufLimit())
			}
		}
		if s.MemBytes() != ref.MemBytes() {
			t.Fatalf("δ=%v: full sketch MemBytes %d, preallocated %d", delta, s.MemBytes(), ref.MemBytes())
		}
	}
	if got := New(); got.MemBytes() > 64 {
		t.Fatalf("empty sketch MemBytes %d", got.MemBytes())
	}
	// 16 → 32 → … → 1 024 → 1 600 is eight buffers; New is the ninth
	// allocation. Short of the limit nothing else allocates.
	limit := New().bufLimit()
	if allocs := testing.AllocsPerRun(20, func() {
		s := New()
		for _, v := range vals[:limit-1] {
			s.Add(v)
		}
	}); allocs > 9 {
		t.Fatalf("filling a fresh sketch to one short of its limit: %v allocations, want ≤ 9", allocs)
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&(1<<16-1)])
	}
}
