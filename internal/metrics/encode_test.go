package metrics

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// referenceNDJSON and referenceStream are the fmt encoders WriteNDJSON and
// Streamer.Snapshot shipped with before the append encoder; every byte the
// new encoder writes is compared with theirs.
func referenceNDJSON(w io.Writer, samples []Sample) {
	for _, s := range samples {
		fmt.Fprintf(w, "{\"name\":%s,\"label\":%s,\"kind\":%s,\"value\":%s}\n",
			strconv.Quote(s.Name), strconv.Quote(s.Label),
			strconv.Quote(s.Kind.String()), referenceFloat(s.Value))
	}
}

func referenceStream(w io.Writer, snap uint64, at int64, samples []Sample) {
	for _, s := range samples {
		fmt.Fprintf(w, "{\"snap\":%d,\"at\":%d,\"name\":%s,\"label\":%s,\"kind\":%s,\"value\":%s}\n",
			snap, at, strconv.Quote(s.Name), strconv.Quote(s.Label),
			strconv.Quote(s.Kind.String()), referenceFloat(s.Value))
	}
}

func referenceFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// checkAgainstReference snapshots st at the given instant and requires the
// bytes it appended to out, and a fresh WriteNDJSON dump, to equal what the
// reference encoders make of the same Gather.
func checkAgainstReference(t *testing.T, r *Registry, st *Streamer, out *bytes.Buffer, at int64) {
	t.Helper()
	samples := r.Gather()
	var want bytes.Buffer
	referenceStream(&want, st.Snapshots(), at, samples)
	out.Reset()
	if err := st.Snapshot(at); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot %d differs from the reference:\n got: %q\nwant: %q", st.Snapshots()-1, out.Bytes(), want.Bytes())
	}
	want.Reset()
	referenceNDJSON(&want, samples)
	var got bytes.Buffer
	if err := r.WriteNDJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteNDJSON differs from the reference:\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
	}
}

func TestSampleLineMatchesReference(t *testing.T) {
	texts := []string{
		"", "node-1.coap", `say "hi"`, `back\slash`, "tab\there", "nul\x00byte", "bell\a\x7f",
		"line\nfeed", "héllo wörld", "日本語", " sep", "bad\xffutf8", "\xc3(", "emoji😀", "'single'",
	}
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e20, 123456789012345678, 5e-324,
		1 << 53, 1<<53 + 2, math.MaxUint64, math.MaxFloat64, -math.MaxFloat64, 1e-7, 2.5e-5,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	kinds := []SampleKind{KindCounter, KindGauge, KindQuantile, SampleKind(7)}
	var all []Sample
	for i, name := range texts {
		for j, v := range values {
			all = append(all, Sample{Name: name, Label: texts[(i+j)%len(texts)], Kind: kinds[(i+j)%len(kinds)], Value: v})
		}
	}
	r := NewRegistry()
	r.Register("all", func() []Sample { return all })
	var out bytes.Buffer
	st := r.StreamNDJSON(&out)
	// Twice: the second snapshot is served from the cached key text.
	checkAgainstReference(t, r, st, &out, 0)
	checkAgainstReference(t, r, st, &out, math.MinInt64)
}

// TestSampleLineCacheTracksCollectorShape grows, shrinks, reorders and
// relabels one collector's output between snapshots of one Streamer, with
// collectors before and after it whose lines must stay put.
func TestSampleLineCacheTracksCollectorShape(t *testing.T) {
	mk := func(labels ...string) []Sample {
		out := make([]Sample, len(labels))
		for i, l := range labels {
			// Fresh strings on every call, as a concatenating collector makes.
			out[i] = Sample{Name: string([]byte("n.links")), Label: string([]byte(l)), Kind: KindGauge, Value: float64(len(l)) + 0.5}
		}
		return out
	}
	var shape []Sample
	r := NewRegistry()
	r.RegisterCounter("a.first", func() float64 { return 1 })
	r.Register("n.links", func() []Sample { return shape })
	r.RegisterGauge("z.last", func() float64 { return math.NaN() })
	var out bytes.Buffer
	st := r.StreamNDJSON(&out)
	for i, labels := range [][]string{
		{"x", "y"},
		{"x", "y"},
		{"x", "y", "z", "w"},
		{"w", "z", "y", "x"},
		{"w"},
		{},
		{"w", "q"},
		{"x", "y", "z"},
	} {
		shape = mk(labels...)
		checkAgainstReference(t, r, st, &out, int64(i)*1e9)
	}
	// Same position and text, different kind.
	shape[1].Kind = KindCounter
	checkAgainstReference(t, r, st, &out, 9e9)
}

func TestSampleLineCacheRealignsAfterRegister(t *testing.T) {
	r := NewRegistry()
	r.RegisterGauge("a", func() float64 { return 1 })
	r.RegisterGauge("c", func() float64 { return 3 })
	var out bytes.Buffer
	st := r.StreamNDJSON(&out)
	checkAgainstReference(t, r, st, &out, 1)
	r.RegisterCounter("b", func() float64 { return 2 }) // sorts between the two
	checkAgainstReference(t, r, st, &out, 2)
	if names := r.Names(); len(names) != 3 || names[1] != "b" {
		t.Fatalf("Names after a late Register: %v", names)
	}
}

// TestSampleLineEncodingDoesNotAllocate: with collectors that hand out a
// prebuilt slice, a snapshot in steady state allocates nothing.
func TestSampleLineEncodingDoesNotAllocate(t *testing.T) {
	r, _ := benchRegistry()
	st := r.StreamNDJSON(io.Discard)
	if err := st.Snapshot(0); err != nil {
		t.Fatal(err)
	}
	at := int64(0)
	if n := testing.AllocsPerRun(20, func() {
		at += 1e10
		if err := st.Snapshot(at); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state Snapshot allocates %v times, want 0", n)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n      int
	writes int
}

var errSinkFull = errors.New("sink full")

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errSinkFull
	}
	w.n -= len(p)
	return len(p), nil
}

func TestStreamErrIsSticky(t *testing.T) {
	r, calls := benchRegistry()
	sink := &failAfter{n: 100_000} // fails inside the second snapshot's flush
	st := r.StreamNDJSON(sink)
	if err := st.Snapshot(1); err != nil || st.Err() != nil {
		t.Fatalf("first snapshot: %v / %v", err, st.Err())
	}
	if err := st.Snapshot(2); !errors.Is(err, errSinkFull) {
		t.Fatalf("second snapshot: %v, want the sink's error", err)
	}
	if !errors.Is(st.Err(), errSinkFull) {
		t.Fatalf("Err() = %v after a failed snapshot", st.Err())
	}
	if st.Snapshots() != 1 {
		t.Fatalf("Snapshots() = %d, want 1: the failed one does not count", st.Snapshots())
	}
	gathered, written := calls.Load(), sink.writes
	if n := testing.AllocsPerRun(10, func() {
		if err := st.Snapshot(3); !errors.Is(err, errSinkFull) {
			t.Fatalf("snapshot on a dead stream: %v", err)
		}
	}); n != 0 {
		t.Fatalf("Snapshot on a dead stream allocates %v times", n)
	}
	if calls.Load() != gathered || sink.writes != written {
		t.Fatalf("dead stream still works: %d collector calls, %d writes after the failure",
			calls.Load()-gathered, sink.writes-written)
	}
}

// TestGatherConcurrentWithRegistration registers collectors while other
// goroutines gather and stream: the registry's lock must order the two.
// Run under -race.
func TestGatherConcurrentWithRegistration(t *testing.T) {
	r, _ := benchRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := r.StreamNDJSON(io.Discard)
			for i := 0; i < 50; i++ {
				if len(r.Gather()) < 600 || len(r.Names()) < 75 {
					t.Error("short gather")
				}
				if err := st.Snapshot(int64(i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("z.late-%02d", i)
		r.RegisterGauge(name, func() float64 { return float64(i) })
	}
	wg.Wait()
	got := r.Gather()
	if last := got[len(got)-1]; last.Name != "z.late-49" || last.Value != 49 {
		t.Fatalf("last registration not visible: %+v", last)
	}
}

// benchRegistry is the shape of a 15-node non-lean network: 15 nodes × 5
// collectors × 8 counters, each collector handing out a prebuilt slice. The
// returned counter counts collector calls.
func benchRegistry() (*Registry, *atomic.Int64) {
	r := NewRegistry()
	calls := new(atomic.Int64)
	for n := 0; n < 15; n++ {
		for _, layer := range []string{"coap", "netif", "ip6", "statconn", "rpl"} {
			name := fmt.Sprintf("nrf52dk-%d.%s", n, layer)
			samples := make([]Sample, 8)
			for i := range samples {
				samples[i] = Sample{Name: name, Label: fmt.Sprintf("counter_%d", i), Kind: KindCounter, Value: float64(1000*n + i)}
			}
			r.Register(name, func() []Sample { calls.Add(1); return samples })
		}
	}
	return r, calls
}

// BenchmarkStreamSnapshot prices one streamed snapshot of a 600-sample
// registry (the fmt encoder: 716 µs and 8,930 allocations).
func BenchmarkStreamSnapshot(b *testing.B) {
	r, _ := benchRegistry()
	st := r.StreamNDJSON(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Snapshot(int64(i) * 1e10); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzSampleLine is the differential between the append encoder and the
// reference for arbitrary name and label bytes and value bits, cold and
// from the cache.
func FuzzSampleLine(f *testing.F) {
	f.Add("node-1.coap", "requests_sent", uint8(0), math.Float64bits(42), int64(10e9))
	f.Add(`q"uote`, "back\\slash\x00\xff", uint8(1), math.Float64bits(math.NaN()), int64(-1))
	f.Add("日本語", " ", uint8(2), math.Float64bits(math.Inf(-1)), int64(math.MaxInt64))
	f.Add("", "", uint8(9), math.Float64bits(5e-324), int64(0))
	f.Fuzz(func(t *testing.T, name, label string, kind uint8, bits uint64, at int64) {
		s := Sample{Name: name, Label: label, Kind: SampleKind(kind), Value: math.Float64frombits(bits)}
		r := NewRegistry()
		r.Register("c", func() []Sample { return []Sample{s, s} })
		var out bytes.Buffer
		st := r.StreamNDJSON(&out)
		checkAgainstReference(t, r, st, &out, at)
		checkAgainstReference(t, r, st, &out, at)
	})
}
