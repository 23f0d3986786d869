// Package blemesh is a deterministic simulation platform for multi-hop
// IPv6 over Bluetooth Low Energy, reproducing the system and the
// experiments of "Mind the Gap: Multi-hop IPv6 over BLE in the IoT"
// (Petersen, Schmidt, Wählisch — CoNEXT 2021).
//
// The library contains, built from scratch:
//
//   - a discrete-event engine with per-node drifting clocks (internal/sim)
//   - a shared-medium radio model with collisions and interference
//     (internal/phy)
//   - a full BLE link layer: connection events, channel selection,
//     SN/NESN acknowledgements, supervision timeouts, window widening,
//     advertising/scanning, and the single-radio scheduler whose
//     arbitration produces the paper's "connection shading" (internal/ble)
//   - L2CAP LE credit-based channels (internal/l2cap), 6LoWPAN IPHC
//     compression (internal/sixlo), an IPv6+UDP stack with GNRC-style
//     buffer pools (internal/ip6), and CoAP (internal/coap)
//   - the statconn connection manager with the paper's randomized
//     connection-interval mitigation (internal/statconn)
//   - an IEEE 802.15.4 CSMA/CA comparison stack (internal/dot15d4)
//   - a calibrated energy model (internal/energy) and the FIT IoT-Lab
//     testbed description (internal/testbed)
//
// This package is the facade: world construction, node assembly, the
// paper's topologies, and the experiment registry that regenerates every
// table and figure of the evaluation.
//
// A minimal two-node network:
//
//	w := blemesh.New(42)
//	a := w.NewNode(blemesh.NodeConfig{Name: "a", MAC: 0xA1})
//	b := w.NewNode(blemesh.NodeConfig{Name: "b", MAC: 0xB2})
//	a.AcceptInbound(1) // a advertises
//	b.ConnectTo(a)     // b scans and coordinates the connection
//	w.Run(5 * blemesh.Second)
//	// ... use a.Coap / b.Coap, a.Stack / b.Stack
package blemesh

import (
	"fmt"

	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/core"
	"blemesh/internal/energy"
	"blemesh/internal/exp"
	"blemesh/internal/fault"
	"blemesh/internal/ip6"
	"blemesh/internal/metrics"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// Re-exported core types. The aliases make the internal packages' rich
// APIs reachable through the facade without import gymnastics.
type (
	// Time and Duration are simulation timestamps in nanoseconds.
	Time     = sim.Time
	Duration = sim.Duration

	// Node is a fully assembled IPv6-over-BLE node.
	Node = core.Node
	// NodeConfig parameterises a node.
	NodeConfig = core.NodeConfig

	// Message is a CoAP message; Addr an IPv6 address.
	Message = coap.Message
	Addr    = ip6.Addr
	// ICMPEcho is an ICMPv6 echo request/reply (ping).
	ICMPEcho = ip6.ICMPEcho

	// StatconnConfig configures the connection manager.
	StatconnConfig = statconn.Config
	// StaticIntervals is standard BLE-mesh behaviour (one fixed
	// connection interval — the shading-prone configuration).
	StaticIntervals = statconn.Static
	// RandomIntervals is the paper's §6.3 mitigation.
	RandomIntervals = statconn.Random

	// Topology is a statically configured network layout.
	Topology = testbed.Topology
	// Point is a position in meters for positioned (geometric) topologies.
	Point = testbed.Point
	// GeoConfig, CityConfig, and FloorsConfig parameterise the generated
	// city-scale topologies (RandomGeometric, CityBlocks, BuildingFloors).
	GeoConfig    = testbed.GeoConfig
	CityConfig   = testbed.CityConfig
	FloorsConfig = testbed.FloorsConfig

	// Options and Report drive the experiment registry.
	Options = exp.Options
	Report  = exp.Report

	// RoutingMode selects the routing plane for NetworkConfig.Routing:
	// static precomputed host routes (the default, byte-identical to the
	// pre-routing harness) or the dynamic RPL-lite DODAG.
	RoutingMode = exp.RoutingMode

	// SweepConfig, CellResult, and IntervalConfig drive the parallel
	// producer×interval sweep engine.
	SweepConfig    = exp.SweepConfig
	CellResult     = exp.CellResult
	IntervalConfig = exp.IntervalConfig

	// NetworkConfig/TrafficConfig/Network expose the experiment harness
	// for custom studies.
	NetworkConfig = exp.NetworkConfig
	TrafficConfig = exp.TrafficConfig
	Network       = exp.Network

	// CDF is the quantile accumulator used throughout the harness, backed
	// by a log-linear histogram (one pair per occupied bucket, quantiles
	// within 0.39 % of the true order statistic, merges in any order).
	CDF = metrics.CDF
	// MetricsRegistry is the unified metrics surface a Network exposes.
	MetricsRegistry = metrics.Registry
	// MetricsStreamer emits periodic registry snapshots as NDJSON.
	MetricsStreamer = metrics.Streamer

	// TraceLog is the flight recorder; Journey, HopSpan, and Decomposition
	// are its per-packet provenance reconstructions.
	TraceLog      = trace.Log
	Journey       = trace.Journey
	HopSpan       = trace.HopSpan
	Decomposition = trace.Decomposition

	// FaultPlan and FaultEvent script deterministic node churn (crashes,
	// restarts, reboots) against a Network; FaultInjector executes them and
	// logs what happened.
	FaultPlan     = fault.Plan
	FaultEvent    = fault.Event
	FaultInjector = fault.Injector

	// EnergyParams is the calibrated energy model; an EnergyMeter
	// (Network.StartMeter) applies it to one node's activity.
	EnergyParams = energy.Params
	EnergyMeter  = energy.Meter
)

// Convenient duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Routing planes for NetworkConfig.Routing.
const (
	RoutingStatic  = exp.RoutingStatic
	RoutingDynamic = exp.RoutingDynamic
)

// LinkDot15d4 is NetworkConfig.LinkLayer's other value: the IEEE 802.15.4
// CSMA/CA baseline of Fig. 10 in place of BLE (the zero value).
const LinkDot15d4 = exp.LinkDot15d4

// ParseRouting maps a flag value ("static" or "dynamic") to a RoutingMode.
func ParseRouting(name string) (RoutingMode, error) { return exp.ParseRouting(name) }

// ValidateFlags reports a -nodes, -range or -minutes flag value no run can
// honour (see exp.ValidateFlags); CLIs exit 2 with its message.
func ValidateFlags(nodes int, radioRange float64, minutes int) error {
	return exp.ValidateFlags(nodes, radioRange, minutes)
}

// ValidateTopology reports a topology without a producer, whose run would
// report a perfect 0/0 delivery (see exp.ValidateTopology); the run CLIs
// exit 2 with its message.
func ValidateTopology(t Topology) error { return exp.ValidateTopology(t) }

// ValidateRunFlags reports a -scale, -runs or -workers flag value the
// experiment runners would silently replace (see exp.ValidateRunFlags);
// CLIs exit 2 with its message.
func ValidateRunFlags(scale float64, runs, workers int) error {
	return exp.ValidateRunFlags(scale, runs, workers)
}

// RunSweep executes a producer×interval sweep across a pool of workers;
// results are byte-identical for any worker count.
func RunSweep(sc SweepConfig) ([]CellResult, error) { return exp.RunSweep(sc) }

// Fig14Configs and Fig15Producers span the paper's sweep grid.
func Fig14Configs() []IntervalConfig { return exp.Fig14Configs() }
func Fig15Producers() []Duration     { return exp.Fig15Producers() }

// MeanCI95 returns the sample mean and 95% Student-t confidence half-width.
func MeanCI95(vals []float64) (mean, half float64) { return exp.MeanCI95(vals) }

// GCFooter renders the one-line garbage-collector summary the CLI prints
// below each experiment report.
func GCFooter() string { return exp.GCFooter() }

// SweepText renders a sweep result exactly as blemesh-sweep prints it.
func SweepText(cells []CellResult) string { return exp.SweepText(cells) }

// NewMetricsRegistry creates an empty metrics registry for custom studies.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// CoAP message constants, re-exported for building requests.
const (
	CoapNON     = coap.NON
	CoapCON     = coap.CON
	CoapACK     = coap.ACK
	CoapGET     = coap.CodeGET
	CoapPOST    = coap.CodePOST
	CoapValid   = coap.CodeValid
	CoapContent = coap.CodeContent
)

// World is a simulation universe: one event queue and one radio medium on
// which nodes are created.
type World struct {
	Sim    *sim.Sim
	Medium *phy.Medium
}

// New creates a world seeded for reproducibility.
func New(seed int64) *World {
	s := sim.New(seed)
	return &World{Sim: s, Medium: phy.NewMedium(s)}
}

// NewNode assembles a node on this world's medium.
func (w *World) NewNode(cfg NodeConfig) *Node {
	return core.NewNode(w.Sim, w.Medium, cfg)
}

// Run advances simulated time by d.
func (w *World) Run(d Duration) { w.Sim.Run(w.Sim.Now() + d) }

// Now returns the current simulated time.
func (w *World) Now() Time { return w.Sim.Now() }

// JamChannel places a permanent jammer on a BLE data channel (the paper's
// testbed had channel 22 jammed).
func (w *World) JamChannel(ch int) {
	w.Medium.AddInterference(phy.Jammer{Ch: phy.Channel(ch)})
}

// AddNoise adds a diffuse background packet-error process.
func (w *World) AddNoise(per float64) {
	w.Medium.AddInterference(phy.RandomNoise{PER: per})
}

// Tree returns the paper's 15-node tree topology (Fig. 6b).
func Tree() Topology { return testbed.Tree() }

// Line returns the paper's 15-node line topology (Fig. 6c).
func Line() Topology { return testbed.Line() }

// Mesh returns the braided 15-node mesh: the tree's node count and depth,
// but every node below the first hop has two parent candidates, so the
// dynamic routing plane always has an alternate path to repair onto.
func Mesh() Topology { return testbed.Mesh() }

// Forest returns n RF-isolated copies of the tree testbed — the multi-site
// workload more than one worker lane (NetworkConfig.Shards) can actually
// parallelise.
func Forest(n int) Topology { return testbed.Forest(n) }

// RandomGeometric generates a seeded random geometric topology: N nodes
// uniform on a Width×Height arena, linked by a BFS spanning forest of the
// disk graph at the configured radio range.
func RandomGeometric(cfg GeoConfig) Topology { return testbed.RandomGeometric(cfg) }

// CityBlocks generates a seeded city topology: nodes along the perimeters
// of a BlocksX×BlocksY street grid.
func CityBlocks(cfg CityConfig) Topology { return testbed.CityBlocks(cfg) }

// BuildingFloors generates a seeded multi-building topology: clusters of
// floors stacked in Z, buildings isolated by more than the radio range.
func BuildingFloors(cfg FloorsConfig) Topology { return testbed.BuildingFloors(cfg) }

// BuildNetwork assembles a full testbed network with traffic and metrics
// plumbing (the experiment harness's builder).
func BuildNetwork(cfg NetworkConfig) *Network { return exp.BuildNetwork(cfg) }

// Experiments lists the reproducible artifacts: one entry per table and
// figure of the paper.
func Experiments() []exp.Experiment { return exp.Registry }

// RunExperiment runs a registered experiment by ID.
func RunExperiment(id string, o Options) (*Report, error) {
	e, ok := exp.Find(id)
	if !ok {
		return nil, fmt.Errorf("blemesh: unknown experiment %q (try: %v)", id, experimentIDs())
	}
	return e.Run(o), nil
}

func experimentIDs() []string {
	ids := make([]string, 0, len(exp.Registry))
	for _, e := range exp.Registry {
		ids = append(ids, e.ID)
	}
	return ids
}

// ArbitrationSkip and ArbitrationAlternate select the radio scheduler
// policy for NodeConfig/NetworkConfig (the paper's choices (i) and (ii)).
const (
	ArbitrationSkip      = ble.ArbitrateSkip
	ArbitrationAlternate = ble.ArbitrateAlternate
)

// Fault event kinds, re-exported for building fault plans.
const (
	FaultCrash   = fault.Crash
	FaultReboot  = fault.Reboot
	FaultRestart = fault.Restart
)

// AttachFaults schedules a fault plan against a network's simulation clock;
// event times are relative to the current moment. It refuses an 802.15.4
// network: its MAC has no stop path, so crashing or restarting one of its
// nodes is not modelled.
func AttachFaults(nw *Network, p *FaultPlan) (*FaultInjector, error) {
	if nw.Cfg.LinkLayer == LinkDot15d4 {
		return nil, fmt.Errorf("blemesh: fault plans need BLE nodes; the network runs IEEE 802.15.4")
	}
	return fault.Attach(nw.Sim, nw, p)
}
