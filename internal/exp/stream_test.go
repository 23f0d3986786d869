package exp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"blemesh/internal/fault"
	"blemesh/internal/metrics"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// referenceStream and referenceTrace are the fmt encoders the
// metrics stream and the trace export shipped with before the append
// encoders (internal/metrics, internal/trace keep their own copies).
func referenceStream(w io.Writer, snap int, at sim.Time, samples []metrics.Sample) {
	for _, s := range samples {
		v := "null"
		if !math.IsNaN(s.Value) && !math.IsInf(s.Value, 0) {
			v = strconv.FormatFloat(s.Value, 'g', -1, 64)
		}
		fmt.Fprintf(w, "{\"snap\":%d,\"at\":%d,\"name\":%s,\"label\":%s,\"kind\":%s,\"value\":%s}\n",
			snap, int64(at), strconv.Quote(s.Name), strconv.Quote(s.Label), strconv.Quote(s.Kind.String()), v)
	}
}

func referenceTrace(w io.Writer, events []trace.Event) {
	for _, e := range events {
		fmt.Fprintf(w, "{\"at\":%d,\"node\":%s,\"kind\":%s,\"id\":%d,\"dur\":%d,\"detail\":%s}\n",
			int64(e.At), strconv.Quote(e.Node), strconv.Quote(e.Kind.String()),
			e.ID, int64(e.Dur), strconv.Quote(e.Detail()))
	}
}

// churnStreamConfig is the shape of the benchmark's mesh-churn workload:
// RPL on random intervals, a sampled trace, streamed metrics. The period is
// half a second, not the workload's ten: link-quality slots are never
// dropped once sampled, so ".links" changes shape only while the network
// forms, in its first two seconds.
func churnStreamConfig(seed int64, topo testbed.Topology, shards int, stream io.Writer) NetworkConfig {
	return NetworkConfig{
		Seed:          seed,
		Shards:        shards,
		Topology:      topo,
		Policy:        statconn.Random{Min: 65 * sim.Millisecond, Max: 85 * sim.Millisecond},
		JamChannel22:  true,
		Routing:       RoutingDynamic,
		Trace:         true,
		TraceCapacity: 1 << 18,
		TraceSample:   0.1,
		StreamMetrics: stream,
		StreamEvery:   streamTestEvery,
	}
}

const streamTestEvery = 500 * sim.Millisecond

// TestStreamBytesMatchReference streams a churn-shaped run through the
// shipped path and, at the same instants, re-encodes what Gather returns
// with the reference encoder: the two streams, and the trace export and its
// reference, must be byte-identical. The ".links" collectors change shape
// between the early snapshots, "net.trace" carries the sampling counters,
// and a forwarder is rebooted under traffic.
func TestStreamBytesMatchReference(t *testing.T) {
	for _, wl := range []struct {
		name   string
		topo   testbed.Topology
		shards int
	}{
		{"mesh-serial", testbed.Mesh(), 0},
		{"forest-4-lanes", testbed.Forest(4), 4},
	} {
		t.Run(wl.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				var got, want strings.Builder
				nw := BuildNetwork(churnStreamConfig(seed, wl.topo, wl.shards, &got))
				// Posted after the streamer's own tick and on the same
				// period, so it runs right behind it at every instant.
				snap := 0
				var shadow func()
				shadow = func() {
					referenceStream(&want, snap, nw.Sim.Now(), nw.Registry.Gather())
					snap++
					nw.Sim.Post(streamTestEvery, shadow)
				}
				nw.Sim.Post(streamTestEvery, shadow)

				nw.WaitTopology(60 * sim.Second)
				nw.WaitConverged(30 * sim.Second)
				nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
				nw.Run(15 * sim.Second)
				plan := &fault.Plan{Events: []fault.Event{{At: 0, Kind: fault.Reboot, Node: 2, Dwell: churnDwell}}}
				if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
					t.Fatal(err)
				}
				nw.Run(45 * sim.Second)

				if err := nw.StreamErr(); err != nil {
					t.Fatal(err)
				}
				if snap < 100 || !strings.Contains(want.String(), ".links\",\"label\":\"etx_") ||
					!strings.Contains(want.String(), "\"label\":\"pkt_dropped\"") {
					t.Fatalf("seed %d: %d snapshots, or no .links / sampling lines — nothing was compared", seed, snap)
				}
				if got.String() != want.String() {
					n, g, w := firstDiff(got.String(), want.String())
					t.Fatalf("seed %d: stream differs from the reference at line %d:\n  stream:    %s\n  reference: %s", seed, n, g, w)
				}
				if linksShapes(want.String()) < 2 {
					t.Fatalf("seed %d: the .links lines never changed shape across snapshots", seed)
				}
				got.Reset()
				want.Reset()
				if err := nw.Trace.WriteNDJSON(&got); err != nil {
					t.Fatal(err)
				}
				referenceTrace(&want, nw.Trace.Events(""))
				if got.Len() == 0 || got.String() != want.String() {
					n, g, w := firstDiff(got.String(), want.String())
					t.Fatalf("seed %d: trace export differs from the reference at line %d:\n  export:    %s\n  reference: %s", seed, n, g, w)
				}
			}
		})
	}
}

// linksShapes counts the distinct sequences of ".links" sample keys among
// the snapshots of a stream.
func linksShapes(stream string) int {
	shapes := map[string]bool{}
	var cur strings.Builder
	snap := ""
	for _, line := range strings.Split(stream, "\n") {
		if line == "" {
			continue
		}
		if s := line[:strings.Index(line, ",")]; s != snap {
			if snap != "" {
				shapes[cur.String()] = true
			}
			snap = s
			cur.Reset()
		}
		if i := strings.Index(line, ".links\""); i >= 0 {
			cur.WriteString(line[strings.Index(line, "\"name\""):strings.Index(line, "\"kind\"")])
		}
	}
	shapes[cur.String()] = true
	return len(shapes)
}

// fullAfter accepts n bytes, then fails every write.
type fullAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (w *fullAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestStreamErrSurfaces: a sink that fills up ends the stream — the error
// is reported by StreamErr, the tick stops gathering — and the run itself
// is the run a healthy sink sees.
func TestStreamErrSurfaces(t *testing.T) {
	run := func(sink io.Writer) (*Network, *int) {
		nw := BuildNetwork(NetworkConfig{
			Seed:          3,
			Topology:      testbed.Tree(),
			Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
			JamChannel22:  true,
			Trace:         true,
			TraceSample:   0.1,
			StreamMetrics: sink,
			StreamEvery:   5 * sim.Second,
		})
		gathers := new(int)
		nw.Registry.RegisterCounter("test.gathers", func() float64 { *gathers++; return float64(*gathers) })
		nw.WaitTopology(60 * sim.Second)
		nw.StartTraffic(TrafficConfig{})
		nw.Run(60 * sim.Second)
		return nw, gathers
	}
	var healthy strings.Builder
	ok, okGathers := run(&healthy)
	if err := ok.StreamErr(); err != nil {
		t.Fatal(err)
	}
	size := healthy.Len() / *okGathers // bytes per snapshot
	bad, badGathers := run(&fullAfter{n: 3*size + size/2})
	if err := bad.StreamErr(); !errors.Is(err, errDiskFull) {
		t.Fatalf("StreamErr() = %v, want the sink's error", err)
	}
	if *okGathers < 12 || *badGathers != 4 {
		t.Fatalf("healthy run gathered %d times, failing run %d (want ≥ 12 and exactly 4: three snapshots, the failing one, none after)",
			*okGathers, *badGathers)
	}
	if a, b := ok.CoAPPDR(), bad.CoAPPDR(); a != b || a.Sent == 0 {
		t.Fatalf("PDR differs: healthy %+v vs failing sink %+v", a, b)
	}
	// Not the RTT quantiles: reading a sketch-backed CDF merges its buffer, so
	// how often it was gathered shows in its estimates.
	var okTrace, badTrace strings.Builder
	if err := ok.Trace.WriteNDJSON(&okTrace); err != nil {
		t.Fatal(err)
	}
	if err := bad.Trace.WriteNDJSON(&badTrace); err != nil {
		t.Fatal(err)
	}
	if ok.Sim.Now() != bad.Sim.Now() || ok.RTTs.N() != bad.RTTs.N() || ok.ConnLosses() != bad.ConnLosses() ||
		okTrace.Len() == 0 || okTrace.String() != badTrace.String() {
		t.Fatal("a failing metrics sink changed the run")
	}
	if (&Network{}).StreamErr() != nil {
		t.Fatal("StreamErr on a network that does not stream")
	}
}
