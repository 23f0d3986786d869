package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"blemesh/internal/sim"
)

// metricSpec names one metric exactly as BENCHMARK.json does. Bound is the
// share of the baseline median an end-to-end metric may get worse by between
// two sets of runs, whatever their seeds, so it has to cover the metric's
// variation from seed to seed; the per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// base is "host" or "simulated": which clock or outcome the number
	// belongs to. Simulated numbers repeat exactly for one seed.
	base string
	// paired marks a metric whose variation from seed to seed dwarfs what
	// is left between two runs of one seed: the simulated outcomes, which
	// repeat exactly, and the live heap, which repeats within 1 %. -compare
	// pairs their runs by seed and holds the differences to seedBound, a
	// share far tighter than Bound.
	paired    bool
	seedBound float64
	// floor is an absolute allowance, in the metric's unit, below which a
	// difference is not a regression whatever share it is.
	floor float64
}

// The end-to-end metrics, the same six on every workload.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, base: "host", floor: 0.02},
	{Name: "run_wall_s", Unit: "s", Better: "lower", Bound: 0.25, base: "host"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25, base: "host", paired: true, seedBound: 0.05},
	{Name: "coap_pdr", Unit: "ratio", Better: "higher", Bound: 0.10, base: "simulated", paired: true, floor: 0.002},
	{Name: "coap_rtt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, base: "simulated", paired: true, seedBound: 0.02},
	{Name: "coap_rtt_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, base: "simulated", paired: true, seedBound: 0.05},
}

// The per-layer metrics, grouped by internal/ package.
var perLayer = []metricSpec{
	{Name: "testbed.generate_s", Unit: "s", Better: "lower", base: "host"},

	{Name: "exp.build_s", Unit: "s", Better: "lower", base: "host"},
	{Name: "exp.form_s", Unit: "s", Better: "lower", base: "host"},
	{Name: "exp.segment_ms_p50", Unit: "ms", Better: "lower", base: "host"},
	{Name: "exp.segment_ms_p90", Unit: "ms", Better: "lower", base: "host"},
	{Name: "exp.allocs_per_exchange", Unit: "count", Better: "lower", base: "host"},
	{Name: "exp.alloc_bytes_per_exchange", Unit: "B", Better: "lower", base: "host"},
	{Name: "exp.gc_cycles", Unit: "count", Better: "lower", base: "host"},
	{Name: "exp.gc_pause_ms", Unit: "ms", Better: "lower", base: "host"},
	{Name: "exp.trace_overhead_frac", Unit: "ratio", Better: "lower", base: "host"},
	{Name: "exp.unattributed_share", Unit: "ratio", Better: "lower", base: "host"},

	{Name: "sim.events", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "sim.events_per_exchange", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", base: "host"},
	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "sim.cancel_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "sim.est_share", Unit: "ratio", Better: "lower", base: "host"},
	{Name: "sim.sites", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "sim.lanes2_speedup", Unit: "ratio", Better: "higher", base: "host"},

	{Name: "phy.transmissions", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "phy.collisions", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "phy.interfered", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "phy.delivered", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "phy.tx_per_exchange", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "phy.transmit_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "phy.est_share", Unit: "ratio", Better: "lower", base: "host"},

	{Name: "ble.conn_events", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ble.events_skipped", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ble.empty_pdu_ratio", Unit: "ratio", Better: "lower", base: "simulated"},
	{Name: "ble.tx_pdus", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ble.retrans", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ble.ll_pdr", Unit: "ratio", Better: "higher", base: "simulated"},
	{Name: "ble.conns_lost", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ble.adv_events", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ble.pool_exhausted", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ble.conn_event_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "ble.est_share", Unit: "ratio", Better: "lower", base: "host"},

	{Name: "statconn.links_opened", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "statconn.link_losses", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "statconn.reconnects", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "statconn.interval_rejects", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "statconn.reconnect_p50_s", Unit: "s", Better: "lower", base: "simulated"},

	{Name: "l2cap.sdus_sent", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "l2cap.frames_sent", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "l2cap.stalls", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "l2cap.credits_sent", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "l2cap.sdu_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "l2cap.est_share", Unit: "ratio", Better: "lower", base: "host"},

	{Name: "core.tx_packets", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "core.rx_packets", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "core.queue_drops", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "core.link_drops", Unit: "count", Better: "lower", base: "simulated"},

	{Name: "sixlo.compress_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "sixlo.decompress_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "sixlo.est_share", Unit: "ratio", Better: "lower", base: "host"},

	{Name: "ip6.sent", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ip6.forwarded", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ip6.received", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "ip6.drops", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "ip6.route_lookup_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "ip6.codec_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "ip6.est_share", Unit: "ratio", Better: "lower", base: "host"},

	{Name: "pktbuf.get_put_ns", Unit: "ns", Better: "lower", base: "host"},

	{Name: "coap.requests_sent", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "coap.responses_matched", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "coap.timeouts", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "coap.served", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "coap.duplicates", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "coap.codec_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "coap.sink_exchange_ns", Unit: "ns", Better: "lower", base: "host"},

	{Name: "rpl.dio_sent", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "rpl.dao_sent", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "rpl.parent_switches", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "rpl.local_repairs", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "rpl.codec_ns", Unit: "ns", Better: "lower", base: "host"},

	{Name: "fault.events_executed", Unit: "count", Better: "higher", base: "simulated"},

	{Name: "metrics.cdf_add_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "metrics.gather_ms", Unit: "ms", Better: "lower", base: "host"},
	{Name: "metrics.snapshots", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "metrics.stream_bytes", Unit: "B", Better: "lower", base: "simulated"},

	{Name: "trace.events_total", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "trace.pkt_kept", Unit: "count", Better: "higher", base: "simulated"},
	{Name: "trace.pkt_dropped", Unit: "count", Better: "lower", base: "simulated"},
	{Name: "trace.emit_ns", Unit: "ns", Better: "lower", base: "host"},
	{Name: "trace.export_ms", Unit: "ms", Better: "lower", base: "host"},
}

// metricValue is one measured number as the contract line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machine records where the host numbers were taken.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Date       string `json:"date"`
}

func describeMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Output waits for git to exit; outside a git checkout the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// report is the full record of one run: the contract line's numbers plus
// what -compare and a reader need beside them.
type report struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Traced   bool    `json:"traced"`
	Machine  machine `json:"machine"`
	Size     struct {
		Units        int     `json:"units"`
		UnitSimS     float64 `json:"unit_simulated_s"`
		Nodes        int     `json:"nodes"`
		Sites        int     `json:"sites"`
		TracedUnits  int     `json:"traced_units"`
		TracedSegs   int     `json:"traced_segments"`
		SharedNet    bool    `json:"one_network"`
		SetupsTimed  int     `json:"setups_timed"`
		RampSimS     float64 `json:"ramp_simulated_s"`
		DrainSimS    float64 `json:"pdr_drain_simulated_s"`
		SinkRatePerS float64 `json:"sink_requests_per_simulated_s"`
	} `json:"size"`
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems"`
	// Ops are the CoAP requests sent inside the coap_pdr window and Lost
	// those that drew no response: simulated outcomes, the same for every
	// run of one seed. The contract line's "failed" is something else —
	// operations the benchmark could not account for.
	Ops        uint64 `json:"ops"`
	Lost       uint64 `json:"lost"`
	RTTSamples int    `json:"rtt_samples"`
	SimDigest  string `json:"sim_digest"`
	// Producers are open-loop timers in simulated time: they fire on
	// schedule whether or not responses arrive, so the generator is never
	// late by construction.
	GeneratorLatenessS float64                `json:"generator_lateness_s"`
	Metrics            map[string]metricValue `json:"metrics"`
	UnitWallS          []float64              `json:"unit_wall_s"`
	UnitSetupS         []float64              `json:"unit_setup_s"`
	SpanFile           string                 `json:"span_file,omitempty"`

	spans []span
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *result) endToEndValues() map[string]float64 {
	walls := make([]float64, len(r.plain))
	for i, u := range r.plain {
		walls[i] = u.wallS
	}
	return map[string]float64{
		"setup_s":         median(r.setupS),
		"run_wall_s":      median(walls) * float64(len(walls)),
		"live_heap_mb":    median(r.liveHeapMB),
		"coap_pdr":        ratio(float64(r.delivered), float64(r.ops)),
		"coap_rtt_p50_ms": 1e3 * r.rtts.Quantile(0.5),
		"coap_rtt_p99_ms": 1e3 * r.rtts.Quantile(0.99),
	}
}

// perLayerValues turns the traced pass, the plain units beside it and the
// probes into the per-layer metrics. Counts are deltas over the traced
// units' measured spans. Shares divide by the host time of the traced
// segments that ran on one lane, so a parallel run's shorter wall clock
// does not inflate them.
func (r *result) perLayerValues() map[string]float64 {
	t, p := r.tracedDelta, &r.probes
	f := func(i int) float64 { return float64(t[i]) }

	var segMS, ns1, ns2 []float64
	var serial counts
	var serialWall, tracedWall, plainWall float64
	var plainEvents, tracedEvents2, tracedCost2 float64
	for _, u := range r.tracedUnits {
		tracedWall += u.wallS
		for _, s := range u.segments {
			segMS = append(segMS, 1e3*s.wallS)
			perEvent := ratio(1e9*s.wallS, float64(s.delta[cSimEvents]))
			if s.lanes <= 1 {
				serial = serial.add(s.delta)
				serialWall += s.wallS
				ns1 = append(ns1, perEvent)
			} else {
				ns2 = append(ns2, perEvent)
				tracedEvents2 += float64(s.delta[cSimEvents])
				tracedCost2 += s.wallS + s.snapS
			}
		}
	}
	var mallocs, allocBytes, gcCycles, gcPauseNs float64
	for _, u := range r.plain {
		plainWall += u.wallS
		plainEvents += float64(u.events)
		mallocs += float64(u.mallocs)
		allocBytes += float64(u.allocBytes)
		gcCycles += float64(u.gcCycles)
		gcPauseNs += float64(u.gcPauseNs)
	}
	plainExchanges := float64(r.delta[cCoAPResponsesMatched])

	// Tracing overhead: the traced repetitions against the same repetitions
	// run plain; on a shared network, where a span cannot be run twice, host
	// time per event of the two-lane traced segments (snapshots included)
	// against the plain units before them.
	overhead := ratio(tracedWall-plainWall, plainWall)
	lanes2 := 0.0
	if r.w.shared {
		overhead = ratio(ratio(tracedCost2, tracedEvents2), ratio(plainWall, plainEvents)) - 1
		lanes2 = ratio(median(ns1), median(ns2))
	}

	serialNs := 1e9 * serialWall
	s := func(i int) float64 { return float64(serial[i]) }
	simShare := ratio(s(cSimEvents)*p.dispatchNs, serialNs)
	phyShare := ratio(s(cPhyTransmissions)*p.transmitNs, serialNs)
	bleShare := ratio(s(cBLEConnEvents)*p.connEventNs, serialNs)
	l2capShare := ratio(s(cL2CAPSDUsSent)*p.sduNs, serialNs)
	sixloShare := ratio(s(cCoreTXPackets)*p.compressNs+s(cCoreRXPackets)*p.decompressNs, serialNs)
	ip6Share := ratio((s(cIP6Sent)+s(cIP6Forwarded)+s(cIP6Received))*(p.ip6CodecNs+p.routeLookupNs), serialNs)

	exchanges := f(cCoAPResponsesMatched)
	dataPDUs := f(cBLETXPDUs) - f(cBLETXEmpty)
	return map[string]float64{
		"testbed.generate_s": median(r.generateS),

		"exp.build_s":                  median(r.buildS),
		"exp.form_s":                   median(r.formS),
		"exp.segment_ms_p50":           quantile(segMS, 0.5),
		"exp.segment_ms_p90":           quantile(segMS, 0.9),
		"exp.allocs_per_exchange":      ratio(mallocs, plainExchanges),
		"exp.alloc_bytes_per_exchange": ratio(allocBytes, plainExchanges),
		"exp.gc_cycles":                gcCycles,
		"exp.gc_pause_ms":              gcPauseNs / 1e6,
		"exp.trace_overhead_frac":      overhead,
		"exp.unattributed_share":       1 - (simShare + phyShare + bleShare + l2capShare + sixloShare + ip6Share),

		"sim.events":              f(cSimEvents),
		"sim.events_per_exchange": ratio(f(cSimEvents), exchanges),
		"sim.host_ns_per_event":   ratio(serialNs, s(cSimEvents)),
		"sim.dispatch_ns":         p.dispatchNs,
		"sim.cancel_ns":           p.cancelNs,
		"sim.est_share":           simShare,
		"sim.sites":               float64(r.sites),
		"sim.lanes2_speedup":      lanes2,

		"phy.transmissions":   f(cPhyTransmissions),
		"phy.collisions":      f(cPhyCollisions),
		"phy.interfered":      f(cPhyInterfered),
		"phy.delivered":       f(cPhyDelivered),
		"phy.tx_per_exchange": ratio(f(cPhyTransmissions), exchanges),
		"phy.transmit_ns":     p.transmitNs,
		"phy.est_share":       phyShare,

		"ble.conn_events":     f(cBLEConnEvents),
		"ble.events_skipped":  f(cBLEEventsSkipped),
		"ble.empty_pdu_ratio": ratio(f(cBLETXEmpty), f(cBLETXPDUs)),
		"ble.tx_pdus":         f(cBLETXPDUs),
		"ble.retrans":         f(cBLERetrans),
		"ble.ll_pdr":          ratio(dataPDUs-f(cBLERetrans), dataPDUs),
		"ble.conns_lost":      f(cBLEConnsLost),
		"ble.adv_events":      f(cBLEAdvEvents),
		"ble.pool_exhausted":  f(cBLEPoolExhausted),
		"ble.conn_event_ns":   p.connEventNs,
		"ble.est_share":       bleShare,

		"statconn.links_opened":     f(cStatconnLinksOpened),
		"statconn.link_losses":      f(cStatconnLinkLosses),
		"statconn.reconnects":       f(cStatconnReconnects),
		"statconn.interval_rejects": f(cStatconnIntervalRejects),
		"statconn.reconnect_p50_s":  r.reconnectP50S,

		"l2cap.sdus_sent":    f(cL2CAPSDUsSent),
		"l2cap.frames_sent":  f(cL2CAPFramesSent),
		"l2cap.stalls":       f(cL2CAPStalls),
		"l2cap.credits_sent": f(cL2CAPCreditsSent),
		"l2cap.sdu_ns":       p.sduNs,
		"l2cap.est_share":    l2capShare,

		"core.tx_packets":  f(cCoreTXPackets),
		"core.rx_packets":  f(cCoreRXPackets),
		"core.queue_drops": f(cCoreQueueDrops),
		"core.link_drops":  f(cCoreLinkDrops),

		"sixlo.compress_ns":   p.compressNs,
		"sixlo.decompress_ns": p.decompressNs,
		"sixlo.est_share":     sixloShare,

		"ip6.sent":            f(cIP6Sent),
		"ip6.forwarded":       f(cIP6Forwarded),
		"ip6.received":        f(cIP6Received),
		"ip6.drops":           f(cIP6Drops),
		"ip6.route_lookup_ns": p.routeLookupNs,
		"ip6.codec_ns":        p.ip6CodecNs,
		"ip6.est_share":       ip6Share,

		"pktbuf.get_put_ns": p.pktbufNs,

		"coap.requests_sent":     f(cCoAPRequestsSent),
		"coap.responses_matched": f(cCoAPResponsesMatched),
		"coap.timeouts":          f(cCoAPTimeouts),
		"coap.served":            f(cCoAPServed),
		"coap.duplicates":        f(cCoAPDuplicates),
		"coap.codec_ns":          p.coapCodecNs,
		"coap.sink_exchange_ns":  p.sinkExchangeNs,

		"rpl.dio_sent":        f(cRPLDIOSent),
		"rpl.dao_sent":        f(cRPLDAOSent),
		"rpl.parent_switches": f(cRPLParentSwitches),
		"rpl.local_repairs":   f(cRPLLocalRepairs),
		"rpl.codec_ns":        p.rplCodecNs,

		"fault.events_executed": f(cFaultExecuted),

		"metrics.cdf_add_ns":   p.cdfAddNs,
		"metrics.gather_ms":    median(r.gatherMS),
		"metrics.snapshots":    f(cStreamSnapshots),
		"metrics.stream_bytes": f(cStreamBytes),

		"trace.events_total": f(cTraceEvents),
		"trace.pkt_kept":     f(cTracePktKept),
		"trace.pkt_dropped":  f(cTracePktDropped),
		"trace.emit_ns":      p.emitNs,
		"trace.export_ms":    median(r.exportMS),
	}
}

// buildReport assembles the record of a finished run. A metric the tables
// name but the run did not produce is a benchmark bug and makes the run
// incorrect.
func buildReport(r *result, seconds int, m machine) *report {
	specs, values := endToEnd, r.endToEndValues()
	if r.traced {
		specs, values = perLayer, r.perLayerValues()
	}
	rep := &report{Workload: r.w.name, Why: r.w.why, Seed: r.seed, Seconds: seconds,
		Traced: r.traced, Machine: m, Metrics: map[string]metricValue{}, spans: r.spans}
	rep.Problems = append(append([]string{}, r.problems...), r.probes.problems...)
	for _, sp := range specs {
		v, ok := values[sp.Name]
		if !ok {
			rep.Problems = append(rep.Problems, "metric "+sp.Name+" was not measured")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("metric %s is %v", sp.Name, v))
			v = 0 // JSON cannot carry it
		}
		rep.Metrics[sp.Name] = metricValue{Value: v, Unit: sp.Unit}
	}
	if len(values) != len(specs) {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d metrics measured, %d specified", len(values), len(specs)))
	}
	rep.Size.Units = len(r.plain)
	rep.Size.UnitSimS = r.sz.span.Seconds()
	rep.Size.Nodes = r.nodes
	rep.Size.Sites = r.sites
	rep.Size.TracedUnits = len(r.tracedUnits)
	if len(r.tracedUnits) > 0 {
		rep.Size.TracedSegs = len(r.tracedUnits[0].segments)
	}
	rep.Size.SharedNet = r.w.shared
	rep.Size.SetupsTimed = len(r.setupS)
	rep.Size.RampSimS = r.w.ramp.Seconds()
	measured := r.sz.span
	if r.w.shared {
		measured *= sim.Duration(r.sz.units)
	}
	rep.Size.DrainSimS = drainWindow(measured).Seconds()
	rep.Size.SinkRatePerS = r.w.sinkRate
	rep.Correct = len(rep.Problems) == 0
	rep.Ops, rep.Lost = r.ops, r.ops-r.delivered
	rep.RTTSamples = r.rtts.N()
	rep.SimDigest = r.simDigest()
	for _, u := range r.plain {
		rep.UnitWallS = append(rep.UnitWallS, u.wallS)
	}
	rep.UnitSetupS = r.setupS
	return rep
}

// line is the contract's view of a report. An operation is one simulated
// CoAP request in the coap_pdr window. Requests the simulated network loses
// are results (coap_pdr), not failures of the program under test; failed
// counts the operations a failed correctness check leaves unaccounted for,
// which is all of them.
func (rep *report) line() contractLine {
	l := contractLine{Correct: rep.Correct, Attempted: rep.Ops, Metrics: rep.Metrics}
	if l.Attempted == 0 {
		l.Attempted = 1
	}
	if !rep.Correct {
		l.Failed = l.Attempted
	}
	return l
}

// print writes the human-readable table: every metric by name with its
// unit and time base.
func (rep *report) print(w io.Writer) {
	pass := "tracing off, end-to-end metrics"
	if rep.Traced {
		pass = "traced pass, per-layer metrics"
	}
	fmt.Fprintf(w, "# %s seed %d: %s\n", rep.Workload, rep.Seed, pass)
	fmt.Fprintf(w, "# %d units x %.1f simulated s, %d nodes in %d sites; %d ops in the PDR window, %d lost, %d RTT samples\n",
		rep.Size.Units, rep.Size.UnitSimS, rep.Size.Nodes, rep.Size.Sites, rep.Ops, rep.Lost, rep.RTTSamples)
	fmt.Fprintf(w, "# producers are open-loop timers in simulated time: generator lateness %g s by construction\n", rep.GeneratorLatenessS)
	fmt.Fprintf(w, "# sim_digest %s\n", rep.SimDigest)
	specs := endToEnd
	if rep.Traced {
		specs = perLayer
	}
	for _, sp := range specs {
		fmt.Fprintf(w, "%-30s %16.6g %-6s %s\n", sp.Name, rep.Metrics[sp.Name].Value, sp.Unit, sp.base)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
