package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"blemesh/internal/sim"
)

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if c.N() != 100 {
		t.Fatalf("N=%d", c.N())
	}
	if m := c.Median(); m < 50 || m > 51 {
		t.Fatalf("median=%v", m)
	}
	if c.Min() != 1 || c.Max() != 100 {
		t.Fatalf("min/max = %v/%v", c.Min(), c.Max())
	}
	if q := c.Quantile(0.99); q < 99 || q > 100 {
		t.Fatalf("p99=%v", q)
	}
	if q := c.Quantile(0); q != 1 {
		t.Fatalf("q0=%v", q)
	}
	if q := c.Quantile(1); q != 100 {
		t.Fatalf("q1=%v", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.Median() != 0 || c.Mean() != 0 || c.Min() != 0 || c.Max() != 0 ||
		c.FractionBelow(1) != 0 || c.Quantile(0.9) != 0 {
		t.Fatal("empty CDF scalar accessors should return 0")
	}
	if _, ok := c.QuantileOK(0.5); ok {
		t.Fatal("empty QuantileOK ok=true")
	}
	if _, ok := c.MeanOK(); ok {
		t.Fatal("empty MeanOK ok=true")
	}
	if _, ok := c.MinOK(); ok {
		t.Fatal("empty MinOK ok=true")
	}
	if _, ok := c.MaxOK(); ok {
		t.Fatal("empty MaxOK ok=true")
	}
	if _, ok := c.FractionBelowOK(1); ok {
		t.Fatal("empty FractionBelowOK ok=true")
	}
	if c.N() != 0 || c.MemBytes() != 0 {
		t.Fatalf("empty N=%d MemBytes=%d", c.N(), c.MemBytes())
	}
	if !strings.Contains(c.ASCII(10, 4, "x"), "no samples") {
		t.Fatal("empty ASCII output wrong")
	}
}

func TestCDFBothBackendsAgreeOnSmallSets(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if c.Min() != 1 || c.Max() != 100 || c.N() != 100 {
		t.Fatalf("min/max/n = %v/%v/%d", c.Min(), c.Max(), c.N())
	}
	if m := c.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean=%v", m)
	}
	if m := c.Median(); m < 50 || m > 51 {
		t.Fatalf("median=%v", m)
	}
}

func TestCDFMerge(t *testing.T) {
	var a, b CDF
	for i := 1; i <= 50; i++ {
		a.Add(float64(i))
	}
	for i := 51; i <= 100; i++ {
		b.Add(float64(i))
	}
	a.Merge(&b)
	if a.N() != 100 {
		t.Fatalf("merged N=%d", a.N())
	}
	if a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if m := a.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("merged mean=%v", m)
	}
	if m := a.Median(); m < 49 || m > 52 {
		t.Fatalf("merged median=%v", m)
	}
	// Merging an empty or nil CDF is a no-op.
	var empty CDF
	a.Merge(&empty)
	a.Merge(nil)
	if a.N() != 100 {
		t.Fatalf("N after empty merges=%d", a.N())
	}
	// Merging into an empty CDF creates its sketch.
	var into CDF
	into.Merge(&a)
	if into.N() != 100 || into.Max() != 100 {
		t.Fatalf("merge into empty: N=%d max=%v", into.N(), into.Max())
	}
}

func TestCDFSketchMemoryBounded(t *testing.T) {
	var sk CDF
	for i := 0; i < 1_000_000; i++ {
		sk.Add(float64(i % 9973))
	}
	exactBytes := 8 * 1_000_000
	if got := sk.MemBytes(); got*10 > exactBytes {
		t.Fatalf("sketch CDF MemBytes=%d, want ≥10× below exact %d", got, exactBytes)
	}
}

func TestCDFFractionBelow(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 3, 4} {
		c.Add(v)
	}
	if f := c.FractionBelow(2.5); f != 0.5 {
		t.Fatalf("F(2.5)=%v", f)
	}
	if f := c.FractionBelow(0); f != 0 {
		t.Fatalf("F(0)=%v", f)
	}
	if f := c.FractionBelow(10); f != 1 {
		t.Fatalf("F(10)=%v", f)
	}
}

func TestCDFAddDurationSeconds(t *testing.T) {
	var c CDF
	c.AddDuration(250 * sim.Millisecond)
	if c.Mean() != 0.25 {
		t.Fatalf("duration sample = %v", c.Mean())
	}
}

func TestQuickCDFQuantileMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		var c CDF
		ok := false
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				c.Add(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		qa, qb := math.Abs(a), math.Abs(b)
		qa, qb = qa-math.Floor(qa), qb-math.Floor(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		return c.Quantile(qa) <= c.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCDFPointsSorted(t *testing.T) {
	// Property: the points ASCII plots — F(x) at evenly spaced x from Min
	// to Max — never fall as x grows.
	f := func(vals []float64) bool {
		var c CDF
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				c.Add(v)
			}
		}
		lo, half := c.Min(), c.Max()/2-c.Min()/2 // halves: no overflow at ±MaxFloat64
		prev := 0.0
		for i := 0; i < 20; i++ {
			step := half * float64(i) / 19
			f := c.FractionBelow(lo + step + step)
			if f < prev {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(10 * sim.Second)
	// Bucket 0: 2 sent, 1 delivered; bucket 2: 1 sent, 1 delivered.
	ts.RecordSent(sim.Second)
	ts.RecordSent(2 * sim.Second)
	ts.RecordDelivered(2 * sim.Second)
	ts.RecordSent(25 * sim.Second)
	ts.RecordDelivered(25 * sim.Second)
	if len(ts.buckets) != 3 {
		t.Fatalf("buckets=%d", len(ts.buckets))
	}
	for i, want := range []float64{0.5, 1, 1} {
		if got := ts.buckets[i].Rate(); got != want {
			t.Fatalf("bucket %d rate=%v, want %v", i, got, want)
		}
	}
	total := ts.Overall()
	if total.Sent != 3 || total.Delivered != 2 {
		t.Fatalf("overall=%+v", total)
	}
}

func TestTimeSeriesASCII(t *testing.T) {
	ts := NewTimeSeries(sim.Second)
	ts.RecordSent(0)
	ts.RecordDelivered(0)
	out := ts.ASCII("pdr")
	if !strings.Contains(out, "#") || !strings.Contains(out, "overall=1.0000") {
		t.Fatalf("ASCII: %q", out)
	}
}

func TestRateChar(t *testing.T) {
	cases := []struct {
		r float64
		c byte
	}{{1, '#'}, {0.97, '9'}, {0.85, '8'}, {0.5, '5'}, {0, '0'}}
	for _, cse := range cases {
		if got := rateChar(cse.r); got != cse.c {
			t.Errorf("rateChar(%v)=%c want %c", cse.r, got, cse.c)
		}
	}
}

func TestCounterRate(t *testing.T) {
	if (Counter{}).Rate() != 1 {
		t.Fatal("empty counter rate != 1")
	}
	if (Counter{Sent: 4, Delivered: 1}).Rate() != 0.25 {
		t.Fatal("rate wrong")
	}
}

func TestHeatmapRows(t *testing.T) {
	h := NewHeatmap(sim.Second)
	h.Row("node-1").RecordSent(0)
	h.Row("node-2").RecordSent(0)
	h.Row("node-1").RecordDelivered(0)
	if rows := h.Rows(); len(rows) != 2 || rows[0] != "node-1" {
		t.Fatalf("rows=%v", rows)
	}
	out := h.ASCII()
	if !strings.Contains(out, "node-1") || !strings.Contains(out, "node-2") {
		t.Fatalf("heatmap ASCII: %q", out)
	}
}

func TestCDFASCIIShape(t *testing.T) {
	var c CDF
	for i := 0; i < 1000; i++ {
		c.Add(float64(i % 100))
	}
	out := c.ASCII(40, 8, "rtt")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 8 rows + axis.
	if len(lines) != 10 {
		t.Fatalf("ASCII has %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "n=1000") {
		t.Fatalf("header: %q", lines[0])
	}
}
