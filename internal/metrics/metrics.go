// Package metrics provides the measurement toolkit of the experiment
// harness: CDFs with quantiles, bucketed time series (for PDR-over-time
// plots), per-producer heatmap rows, and ASCII renderings that mirror the
// paper's figures in a terminal.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"unsafe"

	"blemesh/internal/sim"
)

// CDF accumulates samples and answers quantile queries.
//
// The backing store is a log-linear histogram (hist.go): a quantile lies
// within 2^-8 (0.39 %) of the true nearest-rank order statistic, count, sum,
// mean, min and max are exact, and no read changes what a later read
// returns. It is created at the first Add, so an empty CDF costs one
// pointer. NaN and ±Inf samples are ignored.
//
// Scalar accessors (Quantile, Mean, Min, Max, Median, FractionBelow)
// return 0 for an empty CDF; use the OK variants to distinguish "empty"
// from a genuine zero.
type CDF struct {
	h *hist
}

// Add inserts a sample.
func (c *CDF) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if c.h == nil {
		c.h = newHist()
	}
	c.h.add(v)
}

// AddDuration inserts a sim duration as seconds.
func (c *CDF) AddDuration(d sim.Duration) { c.Add(d.Seconds()) }

// N returns the sample count.
func (c *CDF) N() int {
	if c.h == nil {
		return 0
	}
	return int(c.h.n)
}

// MemBytes returns the store's retained heap bytes: the struct and the
// capacity of its slices.
func (c *CDF) MemBytes() int {
	if c.h == nil {
		return 0
	}
	return int(unsafe.Sizeof(*c.h)) + 4*cap(c.h.pairs) + 8*cap(c.h.sum)
}

// Merge folds another CDF's samples into this one. Bucket counts add, so
// the result is the same for every merge order.
func (c *CDF) Merge(o *CDF) {
	if o == nil || o.h == nil {
		return
	}
	if c.h == nil {
		c.h = newHist()
	}
	c.h.merge(o.h)
}

// QuantileOK returns the q-quantile (0..1), and false when empty.
func (c *CDF) QuantileOK(q float64) (float64, bool) {
	if c.h == nil {
		return 0, false
	}
	return c.h.quantile(q), true
}

// Quantile returns the q-quantile (0..1); 0 when empty.
func (c *CDF) Quantile(q float64) float64 {
	v, _ := c.QuantileOK(q)
	return v
}

// Median returns the 0.5 quantile; 0 when empty.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// MeanOK returns the arithmetic mean, and false when empty.
func (c *CDF) MeanOK() (float64, bool) {
	if c.h == nil {
		return 0, false
	}
	return total(c.h.sum) / float64(c.h.n), true
}

// Mean returns the arithmetic mean; 0 when empty.
func (c *CDF) Mean() float64 {
	v, _ := c.MeanOK()
	return v
}

// MaxOK returns the largest sample, and false when empty.
func (c *CDF) MaxOK() (float64, bool) {
	if c.h == nil {
		return 0, false
	}
	return c.h.max, true
}

// Max returns the largest sample; 0 when empty.
func (c *CDF) Max() float64 {
	v, _ := c.MaxOK()
	return v
}

// MinOK returns the smallest sample, and false when empty.
func (c *CDF) MinOK() (float64, bool) {
	if c.h == nil {
		return 0, false
	}
	return c.h.min, true
}

// Min returns the smallest sample; 0 when empty.
func (c *CDF) Min() float64 {
	v, _ := c.MinOK()
	return v
}

// FractionBelowOK returns the empirical CDF value at x, at the histogram's
// resolution (a sample in x's bucket counts as below x), and false when
// empty.
func (c *CDF) FractionBelowOK(x float64) (float64, bool) {
	if c.h == nil {
		return 0, false
	}
	return c.h.fraction(x), true
}

// FractionBelow returns the empirical CDF value at x; 0 when empty.
func (c *CDF) FractionBelow(x float64) float64 {
	v, _ := c.FractionBelowOK(x)
	return v
}

// ASCII renders the CDF as a small terminal plot.
func (c *CDF) ASCII(width, height int, label string) string {
	if c.N() == 0 {
		return label + ": (no samples)\n"
	}
	lo, hi := c.Min(), c.Max()
	if hi <= lo {
		hi = lo + 1e-9
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for col := 0; col < width; col++ {
		x := lo + (hi-lo)*float64(col)/float64(width-1)
		f := c.FractionBelow(x)
		row := height - 1 - int(float64(f*float64(height-1))+0.5)
		grid[row][col] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d, median=%.3f, p99=%.3f, max=%.3f)\n",
		label, c.N(), c.Median(), c.Quantile(0.99), c.Max())
	for i, row := range grid {
		f := 1 - float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%4.2f |%s|\n", f, string(row))
	}
	fmt.Fprintf(&b, "      %-*.3g%*.3g\n", width/2, lo, width-width/2, hi)
	return b.String()
}

// Counter is a ratio counter (delivered / sent).
type Counter struct {
	Sent      uint64
	Delivered uint64
}

// Rate returns Delivered/Sent, or 1 when nothing was sent.
func (c Counter) Rate() float64 {
	if c.Sent == 0 {
		return 1
	}
	return float64(c.Delivered) / float64(c.Sent)
}

// TimeSeries buckets ratio samples over simulation time — the shape of the
// paper's PDR-over-time plots (Fig. 7a, 9, 13). The counters are updated
// atomically, so the lanes of a multi-site run may record into one series at
// once, provided it was grown (Grow) past every instant they record at.
type TimeSeries struct {
	Bucket  sim.Duration
	buckets []Counter
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(bucket sim.Duration) *TimeSeries {
	if bucket <= 0 {
		bucket = 60 * sim.Second
	}
	return &TimeSeries{Bucket: bucket}
}

// Grow extends the series to cover every instant up to and including t.
// Recording at those instants then never changes the slice, which is what
// makes concurrent recording safe; Grow itself must not run concurrently
// with recording.
func (ts *TimeSeries) Grow(t sim.Time) {
	if n := int(t/ts.Bucket) + 1; n > len(ts.buckets) {
		ts.buckets = append(ts.buckets, make([]Counter, n-len(ts.buckets))...)
	}
}

func (ts *TimeSeries) bucketAt(t sim.Time) *Counter {
	i := int(t / ts.Bucket)
	if i >= len(ts.buckets) {
		ts.Grow(t)
	}
	return &ts.buckets[i]
}

// RecordSent counts an attempt at time t.
func (ts *TimeSeries) RecordSent(t sim.Time) { atomic.AddUint64(&ts.bucketAt(t).Sent, 1) }

// RecordDelivered counts a success attributed to send time t.
func (ts *TimeSeries) RecordDelivered(t sim.Time) { atomic.AddUint64(&ts.bucketAt(t).Delivered, 1) }

// Window sums the buckets overlapping [from, to) — the churn experiment's
// view of traffic during a specific phase (pre-fault, outage, recovered).
// Attribution is per-bucket: a bucket counts when any part of it overlaps
// the window.
func (ts *TimeSeries) Window(from, to sim.Time) Counter {
	var total Counter
	for i, b := range ts.buckets {
		bStart := sim.Time(i) * ts.Bucket
		bEnd := bStart + ts.Bucket
		if bEnd <= from || bStart >= to {
			continue
		}
		total.Sent += b.Sent
		total.Delivered += b.Delivered
	}
	return total
}

// Overall returns the whole-run ratio.
func (ts *TimeSeries) Overall() Counter {
	var total Counter
	for _, b := range ts.buckets {
		total.Sent += b.Sent
		total.Delivered += b.Delivered
	}
	return total
}

// ASCII renders the series as one character per bucket ('9' = ≥0.95,
// '#' = 1.0, digits = first decimal), up to the last bucket that recorded
// anything: buckets grown ahead of the traffic are not shown.
func (ts *TimeSeries) ASCII(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [", label)
	shown := ts.buckets
	for len(shown) > 0 && shown[len(shown)-1] == (Counter{}) {
		shown = shown[:len(shown)-1]
	}
	for _, bk := range shown {
		b.WriteByte(rateChar(bk.Rate()))
	}
	total := ts.Overall()
	fmt.Fprintf(&b, "] overall=%.4f (%d/%d)\n", total.Rate(), total.Delivered, total.Sent)
	return b.String()
}

func rateChar(r float64) byte {
	switch {
	case r >= 0.995:
		return '#'
	case r >= 0.95:
		return '9'
	case math.IsNaN(r):
		return ' '
	default:
		d := int(r * 10)
		if d > 9 {
			d = 9
		}
		if d < 0 {
			d = 0
		}
		return byte('0' + d)
	}
}

// Heatmap collects per-row time series (one row per producer, Fig. 9a/12).
type Heatmap struct {
	Bucket sim.Duration
	rows   map[string]*TimeSeries
	order  []string
}

// NewHeatmap creates a heatmap with the given time bucket.
func NewHeatmap(bucket sim.Duration) *Heatmap {
	return &Heatmap{Bucket: bucket, rows: make(map[string]*TimeSeries)}
}

// Row returns (creating if needed) the series for a row label.
func (h *Heatmap) Row(label string) *TimeSeries {
	ts, ok := h.rows[label]
	if !ok {
		ts = NewTimeSeries(h.Bucket)
		h.rows[label] = ts
		h.order = append(h.order, label)
	}
	return ts
}

// Rows returns the labels in insertion order.
func (h *Heatmap) Rows() []string { return append([]string(nil), h.order...) }

// ASCII renders every row.
func (h *Heatmap) ASCII() string {
	var b strings.Builder
	w := 0
	for _, l := range h.order {
		if len(l) > w {
			w = len(l)
		}
	}
	for _, l := range h.order {
		b.WriteString(fmt.Sprintf("%-*s ", w, l))
		b.WriteString(h.rows[l].ASCII(""))
	}
	return b.String()
}
