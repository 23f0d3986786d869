package exp

import (
	"sort"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

func init() {
	register(Experiment{
		ID:     "latency",
		Title:  "End-to-end latency decomposition from the flight recorder",
		Figure: "observability (extends §6.2)",
		Run:    runLatency,
	})
}

// runLatency drives the tree workload with full provenance tracing and
// decomposes every delivered packet's end-to-end latency into queueing,
// connection-interval wait, airtime, and retransmission overhead — per hop
// and per packet — straight from the flight recorder's span events.
func runLatency(o Options) *Report {
	o.defaults()
	r := newReport("latency", "Latency decomposition: queue / interval-wait / airtime / retransmission (tree, CI 75ms)")
	dur := hour(o) / 4
	if dur < 2*sim.Minute {
		dur = 2 * sim.Minute
	}
	nw := runTopo(o, 0, testbed.Tree(), statconn.Static{Interval: 75 * sim.Millisecond},
		TrafficConfig{}, dur, func(cfg *NetworkConfig) {
			cfg.Trace = true
			cfg.TraceCapacity = 1 << 20
		})

	js := nw.Journeys()
	d := trace.Decompose(js)
	r.addf("journeys %d (delivered %d), hops %d, trace events %d",
		d.Journeys, d.Delivered, d.Hops, nw.Trace.Total())

	// The acceptance bar: per-packet component spans must tile the measured
	// end-to-end latency. Track the worst residual across all deliveries.
	var maxErr sim.Duration
	for _, j := range js {
		if !j.Delivered {
			continue
		}
		err := j.Latency() - j.ComponentSum()
		if err < 0 {
			err = -err
		}
		if err > maxErr {
			maxErr = err
		}
	}
	r.addf("max |e2e - Σcomponents| over delivered packets: %v (criterion: ≤1µs)", maxErr)
	r.set("tiling_max_err_us", maxErr.Seconds()*1e6)

	if d.Total > 0 {
		r.addf("aggregate shares of delivered latency: queue %.1f%%  interval-wait %.1f%%  airtime %.2f%%  retrans/gap %.1f%%",
			100*float64(d.Queue)/float64(d.Total),
			100*float64(d.IntervalWait)/float64(d.Total),
			100*float64(d.Airtime)/float64(d.Total),
			100*float64(d.Retrans)/float64(d.Total))
		r.set("share_queue", float64(d.Queue)/float64(d.Total))
		r.set("share_interval_wait", float64(d.IntervalWait)/float64(d.Total))
		r.set("share_airtime", float64(d.Airtime)/float64(d.Total))
		r.set("share_retrans", float64(d.Retrans)/float64(d.Total))
	}
	r.set("journeys", float64(d.Journeys))
	r.set("delivered", float64(d.Delivered))
	r.set("hops", float64(d.Hops))

	// Sample waterfall: the median-latency delivered multi-hop journey —
	// representative, not cherry-picked.
	if j := medianJourney(js); j != nil {
		r.addBlock("median-latency multi-hop packet:")
		r.addBlock(j.Waterfall(48))
	}

	if causes := nw.Trace.DropCauses(); len(causes) > 0 {
		r.addBlock("drop causes:")
		keys := make([]string, 0, len(causes))
		for c := range causes {
			keys = append(keys, c)
		}
		sort.Strings(keys)
		for _, c := range keys {
			r.addf("  %-12s %d", c, causes[c])
		}
	}
	r.addBlock("unified metrics snapshot (selected):")
	r.addf("  net.coap_pdr %.4f  net.ll_pdr %.4f  net.rtt_seconds{p95} %.3f",
		nw.CoAPPDR().Rate(), nw.LLPDR(), nw.MergedRTTs().Quantile(0.95))
	return r
}

// medianJourney picks the delivered journey with ≥2 hops whose latency is
// the median of that set (nil when none qualify).
func medianJourney(js []*trace.Journey) *trace.Journey {
	var multi []*trace.Journey
	for _, j := range js {
		if j.Delivered && len(j.Hops) >= 2 {
			multi = append(multi, j)
		}
	}
	if len(multi) == 0 {
		return nil
	}
	sort.Slice(multi, func(i, k int) bool {
		if multi[i].Latency() != multi[k].Latency() {
			return multi[i].Latency() < multi[k].Latency()
		}
		return multi[i].ID < multi[k].ID
	})
	return multi[len(multi)/2]
}
