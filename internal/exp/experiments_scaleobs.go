package exp

import (
	"math"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

func init() {
	register(Experiment{
		ID:     "scaleobs",
		Title:  "Observability at scale: sampled tracing, sketch quantiles, streamed metrics",
		Figure: "observability extension (beyond the paper's §4.2 logging)",
		Run:    runScaleObs,
	})
}

// countingWriter tallies streamed bytes without retaining them; the
// experiment wants the export volume, not the export.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runScaleObs quantifies what the streaming observability layer costs and
// what it preserves. The same mesh workload runs twice from one seed: once
// with the full flight recorder, once with 10% packet sampling plus periodic
// NDJSON metric streaming. The comparison shows (a) the event-volume
// reduction sampling buys, (b) that the sampler's realized keep rate tracks
// the configured rate, (c) that kept packets still reassemble into complete
// journeys, and (d) that neither sampling nor streaming perturbs the
// simulation — the runs' delivery metrics must agree exactly.
func runScaleObs(o Options) *Report {
	o.defaults()
	r := newReport("scaleobs", "Observability at scale: sampled tracing, sketch quantiles, streamed metrics")
	dur := hour(o) / 6
	const rate = 0.10

	build := func(sample float64, stream *countingWriter) *Network {
		cfg := NetworkConfig{
			Seed:          o.Seed,
			Topology:      testbed.Mesh(),
			Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
			JamChannel22:  true,
			Trace:         true,
			TraceCapacity: 1 << 18,
			TraceSample:   sample,
		}
		if stream != nil {
			cfg.StreamMetrics = stream
			// 10s period so even heavily scaled-down CI runs stream a few
			// snapshots.
			cfg.StreamEvery = 10 * sim.Second
		}
		nw := BuildNetwork(cfg)
		nw.WaitTopology(60 * sim.Second)
		nw.StartTraffic(TrafficConfig{})
		nw.Run(dur)
		return nw
	}

	full := build(0, nil)
	var streamed countingWriter
	sampled := build(rate, &streamed)

	r.addf("mesh topology, %v traffic, seed %d; full trace vs %.0f%% packet sampling + 10s metric streaming",
		dur, o.Seed, rate*100)

	// (d) first, because everything else is meaningless if it fails: the
	// observability configuration must not leak into the simulation.
	fullPDR, sampPDR := full.CoAPPDR(), sampled.CoAPPDR()
	fullRTTs := full.MergedRTTs()
	identical := fullPDR == sampPDR && fullRTTs.N() == sampled.MergedRTTs().N()
	r.addf("perturbation check: full run PDR %.4f (%d/%d), sampled run PDR %.4f (%d/%d) — identical=%v",
		fullPDR.Rate(), fullPDR.Delivered, fullPDR.Sent,
		sampPDR.Rate(), sampPDR.Delivered, sampPDR.Sent, identical)
	r.set("runs_identical", b2f(identical))
	r.set("coap_pdr", fullPDR.Rate())

	// (a) event-volume reduction.
	ft, st := full.Trace.Total(), sampled.Trace.Total()
	reduction := 0.0
	if st > 0 {
		reduction = float64(ft) / float64(st)
	}
	r.addf("trace volume: %d events full, %d events sampled (%.1fx reduction) across %d node shards",
		ft, st, reduction, sampled.Trace.Shards())
	r.set("events_full", float64(ft))
	r.set("events_sampled", float64(st))
	r.set("event_reduction", reduction)

	// (b) realized keep rate over the minted-packet population.
	kept, dropped := sampled.Trace.PktKept(), sampled.Trace.PktDropped()
	observed := 0.0
	if kept+dropped > 0 {
		observed = float64(kept) / float64(kept+dropped)
	}
	r.addf("sampler: %d packets kept, %d dropped — realized keep rate %.4f (configured %.2f, error %.4f)",
		kept, dropped, observed, rate, math.Abs(observed-rate))
	r.set("keep_rate_observed", observed)
	r.set("keep_rate_error", math.Abs(observed-rate))

	// (c) kept packets keep complete journeys: every retained delivered
	// journey must still decompose into hops that tile its span.
	js := sampled.Journeys()
	delivered := 0
	for _, j := range js {
		if j.Delivered {
			delivered++
		}
	}
	r.addf("journeys from sampled trace: %d reassembled, %d delivered end-to-end", len(js), delivered)
	r.set("journeys_sampled", float64(len(js)))
	r.set("journeys_delivered", float64(delivered))

	// Streaming + sketch footprint.
	r.addf("metrics streaming: %d bytes of NDJSON over the run", streamed.n)
	r.set("stream_bytes", float64(streamed.n))
	r.addf("RTT distribution: %d samples in %d bytes (sketch backend)",
		fullRTTs.N(), fullRTTs.MemBytes())
	r.set("rtt_samples", float64(fullRTTs.N()))
	r.set("rtt_mem_bytes", float64(fullRTTs.MemBytes()))
	r.addf("RTT p50 %.4fs p95 %.4fs p99 %.4fs",
		fullRTTs.Quantile(0.5), fullRTTs.Quantile(0.95), fullRTTs.Quantile(0.99))
	r.set("rtt_p50_s", fullRTTs.Quantile(0.5))
	r.set("rtt_p95_s", fullRTTs.Quantile(0.95))
	r.set("rtt_p99_s", fullRTTs.Quantile(0.99))
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
