package exp

import (
	"strings"
	"testing"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// sampledRun drives the tracedRun workload with packet sampling armed and an
// optional streaming sink.
func sampledRun(seed int64, rate float64, stream *strings.Builder) *Network {
	cfg := NetworkConfig{
		Seed:          seed,
		Topology:      testbed.Tree(),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
		TraceSample:   rate,
	}
	if stream != nil {
		cfg.StreamMetrics = stream
		cfg.StreamEvery = 30 * sim.Second
	}
	nw := BuildNetwork(cfg)
	nw.WaitTopology(60 * sim.Second)
	nw.Run(10 * sim.Second)
	nw.StartTraffic(TrafficConfig{})
	nw.Run(2 * sim.Minute)
	return nw
}

// TestSampledTracingDoesNotPerturbTheRun extends the flight recorder's
// determinism contract to the sampler: a 10%-sampled run and a full-trace
// run of the same seed must agree on every simulation outcome, while the
// sampled trace sheds most of the event volume.
func TestSampledTracingDoesNotPerturbTheRun(t *testing.T) {
	full := sampledRun(5, 0, nil)
	samp := sampledRun(5, 0.1, nil)
	if a, b := full.CoAPPDR(), samp.CoAPPDR(); a != b {
		t.Fatalf("PDR differs: full %+v vs sampled %+v", a, b)
	}
	if full.MergedRTTs().N() != samp.MergedRTTs().N() || full.MergedRTTs().Quantile(0.99) != samp.MergedRTTs().Quantile(0.99) {
		t.Fatal("RTT distributions differ between full and sampled runs")
	}
	if full.Sim.Now() != samp.Sim.Now() {
		t.Fatalf("clocks diverged: %v vs %v", full.Sim.Now(), samp.Sim.Now())
	}
	surviving := float64(samp.Trace.Total()) / float64(full.Trace.Total())
	t.Logf("10%% sampling kept %d of %d events (%.3f)", samp.Trace.Total(), full.Trace.Total(), surviving)
	if samp.Trace.Total() == 0 || surviving > 0.35 {
		t.Fatalf("10%% sampling kept %.3f of the event volume — want ≤ 0.35", surviving)
	}
	kept, dropped := samp.Trace.PktKept(), samp.Trace.PktDropped()
	if kept == 0 || dropped == 0 {
		t.Fatalf("sampler decided kept=%d dropped=%d; both must be exercised", kept, dropped)
	}
	rate := float64(kept) / float64(kept+dropped)
	if rate < 0.02 || rate > 0.25 {
		t.Fatalf("realized keep rate %.4f implausible for configured 0.10", rate)
	}
}

// TestSampledJourneysDecomposeExactly checks that sampling preserves the
// per-packet analysis invariant: every journey reassembled from a sampled
// trace still decomposes into components that tile its end-to-end latency
// with zero residual.
func TestSampledJourneysDecomposeExactly(t *testing.T) {
	nw := sampledRun(5, 0.2, nil)
	js := nw.Journeys()
	delivered := 0
	for _, j := range js {
		if !j.Delivered {
			continue
		}
		delivered++
		if j.ComponentSum() != j.Latency() {
			t.Fatalf("pkt %x: components %v != latency %v (residual %v)",
				j.ID, j.ComponentSum(), j.Latency(), j.Latency()-j.ComponentSum())
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered journeys survived 20% sampling in a 2min run")
	}
}

// TestStreamingDoesNotPerturbTheRun checks that attaching a metrics
// streamer changes nothing about the simulation — and that the stream
// itself is well-formed, deterministic, and actually periodic.
func TestStreamingDoesNotPerturbTheRun(t *testing.T) {
	plain := sampledRun(5, 0, nil)
	var stream strings.Builder
	streamed := sampledRun(5, 0, &stream)
	if a, b := plain.CoAPPDR(), streamed.CoAPPDR(); a != b {
		t.Fatalf("PDR differs: plain %+v vs streamed %+v", a, b)
	}
	if plain.Trace.Total() != streamed.Trace.Total() {
		t.Fatalf("trace totals differ: %d vs %d", plain.Trace.Total(), streamed.Trace.Total())
	}
	// The stream reads every CDF at each snapshot; the plain run reads them
	// only here. Their distributions must still agree to the bit.
	a, b := plain.MergedRTTs(), streamed.MergedRTTs()
	if a.N() != b.N() || a.N() == 0 {
		t.Fatalf("RTT samples: plain %d vs streamed %d", a.N(), b.N())
	}
	for _, q := range []float64{0.5, 0.99} {
		if pa, pb := a.Quantile(q), b.Quantile(q); pa != pb {
			t.Fatalf("RTT q%v: plain %.12f vs streamed %.12f", q, pa, pb)
		}
	}
	out := stream.String()
	if out == "" {
		t.Fatal("streamer produced no output")
	}
	// ~140s of sim time at a 30s period: at least snapshots 0..3 present,
	// each line carrying the fixed key order.
	if !strings.Contains(out, "{\"snap\":0,") || !strings.Contains(out, "{\"snap\":3,") {
		t.Fatalf("stream lacks expected snapshot indices:\n%.200s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "{\"snap\":") || !strings.Contains(line, "\"name\":") {
			t.Fatalf("malformed stream line: %q", line)
		}
	}
	// Determinism: the same run streams the same bytes.
	var again strings.Builder
	sampledRun(5, 0, &again)
	if again.String() != out {
		t.Fatal("streamed NDJSON differs across identical runs")
	}
}
