package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SampleKind distinguishes registry sample flavours.
type SampleKind uint8

// Sample kinds.
const (
	KindCounter SampleKind = iota
	KindGauge
	KindQuantile
)

func (k SampleKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindQuantile:
		return "quantile"
	}
	return fmt.Sprintf("SampleKind(%d)", uint8(k))
}

// Sample is one exported metric value. Name is the full metric name
// (typically "node.subsystem.metric"); Label carries a sub-key for
// multi-valued sources (a quantile like "p95", a drop cause).
type Sample struct {
	Name  string
	Label string
	Kind  SampleKind
	Value float64
}

// Registry is the unified metrics surface: every subsystem's Stats()
// source registers named collectors, and Gather snapshots them all in a
// deterministic order. Collectors are closures over the live stats
// structs, so registration costs nothing on the hot path.
//
// Registration and Gather may run on different goroutines (a sweep's
// progress callback gathers while jobs run): mu guards the collector set,
// and collectors themselves are called with it released.
type Registry struct {
	mu         sync.Mutex
	collectors map[string]func() []Sample
	// sorted is the name-ordered view every Gather walks. It is built on
	// the first Gather after a registration — nodes register in ID order,
	// so keeping it sorted as they arrive would be quadratic — and is
	// never modified once published: a registration drops it instead.
	sorted []collector
}

type collector struct {
	name    string
	collect func() []Sample
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{collectors: make(map[string]func() []Sample)}
}

// Register adds a collector under a unique name. Registering a duplicate
// name panics: metric names are an API and collisions hide data.
func (r *Registry) Register(name string, collect func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.collectors[name]; dup {
		panic("metrics: duplicate collector " + name)
	}
	r.collectors[name] = collect
	r.sorted = nil
}

// RegisterCounter registers a single monotonically increasing value.
func (r *Registry) RegisterCounter(name string, fn func() float64) {
	r.Register(name, func() []Sample {
		return []Sample{{Name: name, Kind: KindCounter, Value: fn()}}
	})
}

// RegisterGauge registers a single point-in-time value.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.Register(name, func() []Sample {
		return []Sample{{Name: name, Kind: KindGauge, Value: fn()}}
	})
}

// CDFSamples renders a CDF as a histogram-style source: count, mean, and the
// standard quantiles p50, p95, p99, max. An empty CDF exports NaN values
// (JSON null). A collector calls it on
// the CDF it holds or derives on the fly — e.g. the merge of the per-site
// CDFs of a multi-site network.
func CDFSamples(name string, c *CDF) []Sample {
	out := []Sample{
		{Name: name, Label: "count", Kind: KindGauge, Value: float64(c.N())},
		{Name: name, Label: "mean", Kind: KindQuantile, Value: nanIfEmpty(c.MeanOK())},
	}
	for _, q := range [...]struct {
		label string
		q     float64
	}{{"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}, {"max", 1}} {
		out = append(out, Sample{Name: name, Label: q.label, Kind: KindQuantile,
			Value: nanIfEmpty(c.QuantileOK(q.q))})
	}
	return out
}

// CounterSamples renders a stats struct as counter samples: one per uint64
// field tagged `metric:"<label>"`, in field order, each under its tag. The
// tag is the counter's one name; no collector names it again. The samples
// in extra follow the counters in the same slice.
func CounterSamples(name string, stats any, extra ...Sample) []Sample {
	v := reflect.ValueOf(stats)
	t := v.Type()
	out := make([]Sample, 0, t.NumField()+len(extra))
	for i := 0; i < t.NumField(); i++ {
		if label, ok := t.Field(i).Tag.Lookup("metric"); ok {
			out = append(out, Sample{Name: name, Label: label, Kind: KindCounter, Value: float64(v.Field(i).Uint())})
		}
	}
	return append(out, extra...)
}

// view returns the collectors sorted by name. The slice is shared and
// immutable; a later registration publishes a new one.
func (r *Registry) view() []collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil {
		r.sorted = make([]collector, 0, len(r.collectors))
		for name, collect := range r.collectors {
			r.sorted = append(r.sorted, collector{name, collect})
		}
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].name < r.sorted[j].name })
	}
	return r.sorted
}

// Names returns the registered collector names, sorted.
func (r *Registry) Names() []string {
	view := r.view()
	out := make([]string, len(view))
	for i, c := range view {
		out[i] = c.name
	}
	return out
}

// Gather snapshots every collector. Output order is deterministic:
// collectors sorted by name, samples in collector order.
func (r *Registry) Gather() []Sample {
	var out []Sample
	for _, c := range r.view() {
		out = append(out, c.collect()...)
	}
	return out
}

// appendKey appends the part of a sample's NDJSON line that depends only
// on (Name, Label, Kind), up to and including the "value" key.
func appendKey(dst []byte, s *Sample) []byte {
	dst = append(dst, `"name":`...)
	dst = strconv.AppendQuote(dst, s.Name)
	dst = append(dst, `,"label":`...)
	dst = strconv.AppendQuote(dst, s.Label)
	dst = append(dst, `,"kind":`...)
	dst = strconv.AppendQuote(dst, s.Kind.String())
	return append(dst, `,"value":`...)
}

// appendValue appends what follows the key text on a sample's NDJSON line:
// the value — null for NaN and ±Inf, which JSON cannot carry — and the
// closing brace and newline.
func appendValue(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		dst = append(dst, "null"...)
	} else {
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, '}', '\n')
}

// WriteNDJSON writes a Gather snapshot as newline-delimited JSON with a
// fixed key order; NaN exports as null. Output is buffered: the underlying
// writer sees large chunks, not one syscall-sized write per sample.
func (r *Registry) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, c := range r.view() {
		samples := c.collect()
		for i := range samples {
			line = appendKey(append(line[:0], '{'), &samples[i])
			line = appendValue(line, samples[i].Value)
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteCSV writes a Gather snapshot as CSV with a header row, buffered like
// WriteNDJSON.
func (r *Registry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := io.WriteString(bw, "name,label,kind,value\n"); err != nil {
		return err
	}
	for _, s := range r.Gather() {
		_, err := fmt.Fprintf(bw, "%s,%s,%s,%s\n",
			s.Name, s.Label, s.Kind, csvNum(s.Value))
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Streamer emits a registry's snapshots incrementally as NDJSON: each
// Snapshot call appends one full Gather pass, every line tagged with the
// snapshot index and the capture timestamp, then flushes. Long runs stream
// their metrics as they go instead of materializing one terminal dump —
// a consumer can tail the file and watch any series evolve.
type Streamer struct {
	r     *Registry
	w     *bufio.Writer
	snaps uint64
	err   error // first write error; sticky

	// A sample's key text rarely changes between snapshots, so it is
	// encoded once and kept per collector and position. view is the
	// registry view keys is aligned with.
	view       []collector
	keys       [][]cachedKey
	head, line []byte
}

// cachedKey is the key text of the sample last seen at one position of one
// collector's output, with the fields it was encoded from. Collectors may
// build their strings afresh on every call, so a hit is decided by value.
type cachedKey struct {
	name, label string
	kind        SampleKind
	text        []byte
}

// StreamNDJSON creates a Streamer writing this registry's snapshots to w.
func (r *Registry) StreamNDJSON(w io.Writer) *Streamer {
	return &Streamer{r: r, w: bufio.NewWriterSize(w, 1<<16)}
}

// Snapshot appends one registry snapshot captured at time at (ns) and
// flushes it to the underlying writer. Lines carry the fixed key order
// {"snap":...,"at":...,"name":...,"label":...,"kind":...,"value":...}, so
// streamed output is as deterministic as a terminal WriteNDJSON dump.
//
// The first write error ends the stream: it is returned by this and every
// later call, which then neither gather nor encode.
func (st *Streamer) Snapshot(at int64) error {
	if st.err != nil {
		return st.err
	}
	view := st.r.view()
	if !sameView(view, st.view) {
		st.view, st.keys = view, make([][]cachedKey, len(view))
	}
	st.head = append(st.head[:0], `{"snap":`...)
	st.head = strconv.AppendUint(st.head, st.snaps, 10)
	st.head = append(st.head, `,"at":`...)
	st.head = strconv.AppendInt(st.head, at, 10)
	st.head = append(st.head, ',')
	for ci, c := range view {
		samples := c.collect()
		keys := st.keys[ci]
		if len(samples) > len(keys) {
			keys = append(keys, make([]cachedKey, len(samples)-len(keys))...)
			st.keys[ci] = keys
		}
		for i := range samples {
			s, k := &samples[i], &keys[i]
			if k.text == nil || k.name != s.Name || k.label != s.Label || k.kind != s.Kind {
				k.name, k.label, k.kind = s.Name, s.Label, s.Kind
				// Encoded in the scratch line first, so the kept copy is
				// allocated at its final size, not grown to it.
				st.line = appendKey(st.line[:0], s)
				k.text = append(k.text[:0], st.line...)
			}
			st.line = append(append(st.line[:0], st.head...), k.text...)
			st.line = appendValue(st.line, s.Value)
			if _, st.err = st.w.Write(st.line); st.err != nil {
				return st.err
			}
		}
	}
	if st.err = st.w.Flush(); st.err == nil {
		st.snaps++
	}
	return st.err
}

// sameView reports whether two registry views are the same published slice.
func sameView(a, b []collector) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Snapshots returns how many snapshots have been written in full.
func (st *Streamer) Snapshots() uint64 { return st.snaps }

// Err returns the write error that ended the stream, nil while it is live.
func (st *Streamer) Err() error { return st.err }

// Render formats a Gather snapshot as aligned "name{label} value" lines.
func (r *Registry) Render() string {
	samples := r.Gather()
	var b strings.Builder
	for _, s := range samples {
		key := s.Name
		if s.Label != "" {
			key += "{" + s.Label + "}"
		}
		fmt.Fprintf(&b, "%-56s %s\n", key, csvNum(s.Value))
	}
	return b.String()
}

func csvNum(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
