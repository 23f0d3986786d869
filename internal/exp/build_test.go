package exp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"blemesh/internal/ble"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// TestSparseRouteWindowsExact pins the count-then-carve of the sparse route
// tables on a multi-site city: the counting pass must size every node's
// window to exactly the routes installSparseRoutes gives it, and those routes
// must land inside the window. An under-count falls back to append growth,
// which costs memory without changing a byte of output — so only this test
// notices it.
func TestSparseRouteWindowsExact(t *testing.T) {
	// 256 m² per node, the density of the canonical 10k city.
	topo := testbed.RandomGeometric(testbed.GeoConfig{
		Seed: 5, N: 300, Width: 277, Height: 277, Range: 15})
	if len(topo.Sites()) < 2 {
		t.Fatalf("fixture topology has %d sites, need a multi-site city", len(topo.Sites()))
	}
	// BuildNetwork's own phase list, stopped after the fill so the build's
	// route storage stays in reach.
	cfg := NetworkConfig{Seed: 5, Topology: topo, Lean: true, SparseRoutes: true, Shards: 2}
	cfg.defaults()
	b := planNetwork(cfg)
	b.buildMedia()
	b.allocStorage()
	b.fill()

	total := 0
	for _, id := range b.ids {
		lo, hi := b.routeOff[id], b.routeOff[id+1]
		routes := b.nw.Nodes[id].Stack.Routes()
		total += len(routes)
		if len(routes) != hi-lo {
			t.Fatalf("node %d: %d routes installed, window holds %d", id, len(routes), hi-lo)
		}
		for i, r := range routes {
			if b.routeBuf[lo+i] != r {
				t.Fatalf("node %d route %d: %+v is not in its window (%+v there)", id, i, r, b.routeBuf[lo+i])
			}
		}
	}
	if total != len(b.routeBuf) {
		t.Fatalf("%d routes installed, %d carved", total, len(b.routeBuf))
	}
	if total == 0 {
		t.Fatal("no sparse routes installed")
	}
}

// TestSparseRoutesRequireStaticRouting pins the config-corner fix: sparse
// provisioning under dynamic routing used to build a half-configured
// network (pre-installed sink-tree routes that RPL immediately shadowed).
// Validate rejects it — and every other value BuildNetwork cannot honour —
// with an error a CLI can print; BuildNetwork panics with the same message.
func TestSparseRoutesRequireStaticRouting(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		cfg  NetworkConfig
		want string // substring of the error; "" = valid
	}{
		{"zero value", NetworkConfig{}, ""},
		{"sparse static", NetworkConfig{SparseRoutes: true}, ""},
		{"dynamic dense", NetworkConfig{Routing: RoutingDynamic}, ""},
		{"sparse dynamic", NetworkConfig{Routing: RoutingDynamic, SparseRoutes: true}, "SparseRoutes requires RoutingStatic"},
		{"negative shards", NetworkConfig{Shards: -1}, "Shards = -1"},
		{"negative trace capacity", NetworkConfig{TraceCapacity: -5}, "TraceCapacity = -5"},
		{"negative trace sample", NetworkConfig{TraceSample: -0.5}, "TraceSample = -0.5"},
		{"NaN trace sample", NetworkConfig{TraceSample: nan}, "TraceSample = NaN"},
		{"trace sample above one keeps all", NetworkConfig{TraceSample: 2}, ""},
		{"clean channel", NetworkConfig{NoisePER: -1}, ""},
		{"certain loss", NetworkConfig{NoisePER: 1}, ""},
		{"noise above one", NetworkConfig{NoisePER: 1.5}, "NoisePER = 1.5"},
		{"NaN noise", NetworkConfig{NoisePER: nan}, "NoisePER = NaN"},
		{"default stream period", NetworkConfig{StreamEvery: 0}, ""},
		{"negative stream period", NetworkConfig{StreamEvery: -sim.Second}, "StreamEvery = -1"},
		{"negative series bucket", NetworkConfig{SeriesBucket: -sim.Second}, "SeriesBucket = -1"},
		{"clock override on a tree node", NetworkConfig{PPMOverride: map[int]float64{1: -250, 15: 250}}, ""},
		{"clock override on no node", NetworkConfig{PPMOverride: map[int]float64{1: -250, 99: 250, 16: 3}}, "PPMOverride names node 16"},
		{"clock override off a given topology", NetworkConfig{Topology: testbed.Mesh(), PPMOverride: map[int]float64{16: 1}}, "PPMOverride names node 16, which topology mesh"},
		{"negative clock bound", NetworkConfig{MaxPPM: -3}, "MaxPPM = -3"},
		{"NaN clock bound", NetworkConfig{MaxPPM: nan}, "MaxPPM = NaN"},
		{"negative SCA", NetworkConfig{SCA: -50}, "SCA = -50"},
		{"NaN SCA", NetworkConfig{SCA: nan}, "SCA = NaN"},
		{"SCA below the clock bound", NetworkConfig{MaxPPM: 60, SCA: 50}, ""},
		{"default burst", NetworkConfig{Burst: &phy.BurstParams{}}, ""},
		{"negative good dwell", NetworkConfig{Burst: &phy.BurstParams{MeanGood: -sim.Second}}, "Burst dwell means -1"},
		{"negative bad dwell", NetworkConfig{Burst: &phy.BurstParams{MeanBad: -sim.Millisecond}}, "Burst dwell means"},
		{"good PER below zero", NetworkConfig{Burst: &phy.BurstParams{PERGood: -0.1}}, "Burst PERs -0.1 good"},
		{"good PER above one", NetworkConfig{Burst: &phy.BurstParams{PERGood: 1.5}}, "Burst PERs 1.5 good"},
		{"NaN good PER", NetworkConfig{Burst: &phy.BurstParams{PERGood: nan}}, "Burst PERs NaN good"},
		{"bad PER below zero", NetworkConfig{Burst: &phy.BurstParams{PERBad: -0.9}}, "-0.9 bad"},
		{"bad PER above one", NetworkConfig{Burst: &phy.BurstParams{PERBad: 2}}, "2 bad"},
		{"NaN bad PER", NetworkConfig{Burst: &phy.BurstParams{PERBad: nan}}, "NaN bad"},
		{"802.15.4", NetworkConfig{LinkLayer: LinkDot15d4, NoisePER: -1, Burst: &phy.BurstParams{}, Lean: true, SparseRoutes: true}, ""},
		{"unknown link layer", NetworkConfig{LinkLayer: LinkDot15d4 + 1}, "LinkLayer = 2"},
		{"802.15.4 with a policy", NetworkConfig{LinkLayer: LinkDot15d4, Policy: statconn.Static{Interval: 75 * sim.Millisecond}}, "Policy is a BLE setting"},
		{"802.15.4 with a clock bound", NetworkConfig{LinkLayer: LinkDot15d4, MaxPPM: 3}, "MaxPPM is a BLE setting"},
		{"802.15.4 with an SCA", NetworkConfig{LinkLayer: LinkDot15d4, SCA: 50}, "SCA is a BLE setting"},
		{"802.15.4 with a clock override", NetworkConfig{LinkLayer: LinkDot15d4, PPMOverride: map[int]float64{1: 3}}, "PPMOverride is a BLE setting"},
		{"802.15.4 with an arbitration", NetworkConfig{LinkLayer: LinkDot15d4, Arbitration: ble.ArbitrateAlternate}, "Arbitration is a BLE setting"},
		{"802.15.4 without widening", NetworkConfig{LinkLayer: LinkDot15d4, DisableWindowWidening: true}, "DisableWindowWidening is a BLE setting"},
		{"802.15.4 with channel 22 jammed", NetworkConfig{LinkLayer: LinkDot15d4, JamChannel22: true}, "JamChannel22 is a BLE setting"},
		{"802.15.4 with RPL", NetworkConfig{LinkLayer: LinkDot15d4, Routing: RoutingDynamic}, "Routing = RoutingDynamic"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "SparseRoutes requires RoutingStatic") {
			t.Fatalf("BuildNetwork did not panic with Validate's message: %q", msg)
		}
	}()
	BuildNetwork(NetworkConfig{
		Seed:         1,
		Topology:     testbed.Tree(),
		Routing:      RoutingDynamic,
		SparseRoutes: true,
	})
}

// TestValidateRejectsUnusableIntervals: a policy that can pick a connection
// interval outside [7.5ms, 4s] used to pass Validate and panic at the first
// dial inside the run; Validate rejects it, and BuildNetwork panics with
// Validate's message before the run.
func TestValidateRejectsUnusableIntervals(t *testing.T) {
	ms := sim.Millisecond
	for _, tc := range []struct {
		name   string
		policy statconn.IntervalPolicy
		want   string // substring of the error; "" = valid
	}{
		{"static below the minimum", statconn.Static{Interval: 5 * ms}, "out of range [7.5ms, 4s]"},
		{"static above the maximum", statconn.Static{Interval: 5 * sim.Second}, "out of range [7.5ms, 4s]"},
		{"random window below the minimum", statconn.Random{Min: 1 * ms, Max: 2 * ms}, "out of range [7.5ms, 4s]"},
		{"random window reaching past the maximum", statconn.Random{Min: 3 * sim.Second, Max: 5 * sim.Second}, "out of range [7.5ms, 4s]"},
		{"renegotiate below the minimum", statconn.Renegotiate{Target: 5 * ms}, "out of range [7.5ms, 4s]"},
		{"static off the 1.25ms grid", statconn.Static{Interval: 76 * ms}, "not a multiple of 1.25ms"},
		{"static 75ms", statconn.Static{Interval: 75 * ms}, ""},
		{"random 65-85ms", statconn.Random{Min: 65 * ms, Max: 85 * ms}, ""},
		{"random window rounding inside the range", statconn.Random{Min: 7 * ms, Max: 9 * ms}, ""},
		{"renegotiate around 75ms", statconn.Renegotiate{Target: 75 * ms}, ""},
	} {
		err := NetworkConfig{Policy: tc.policy}.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "out of range [7.5ms, 4s]") {
			t.Fatalf("BuildNetwork did not panic with Validate's message: %q", msg)
		}
	}()
	BuildNetwork(NetworkConfig{Seed: 1, Topology: testbed.Tree(), Policy: statconn.Static{Interval: 5 * ms}})
}

// TestValidateFlags: the generator and run-length flags the CLIs share are
// refused where the generators' defaults and the run loop would silently make
// something else of them.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nodes   int
		rng     float64
		minutes int
		want    string // substring of the error; "" = valid
	}{
		{"CLI defaults", 60, 0, 10, ""},
		{"smallest network, shortest run", 2, 0.5, 1, ""},
		{"one node", 1, 0, 10, "-nodes = 1"},
		{"no nodes", 0, 0, 10, "-nodes = 0"},
		{"negative nodes", -5, 0, 10, "-nodes = -5"},
		{"negative range", 60, -3, 10, "-range = -3"},
		{"NaN range", 60, math.NaN(), 10, "-range = NaN"},
		{"zero minutes", 60, 0, 0, "-minutes = 0"},
		{"negative minutes", 60, 0, -1, "-minutes = -1"},
		{"first offence wins", 0, -3, -1, "-nodes = 0"},
	} {
		err := ValidateFlags(tc.nodes, tc.rng, tc.minutes)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: ValidateFlags() = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: ValidateFlags() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateRunFlags: the run-length, repetition and worker flags of the
// experiment CLIs are refused where Options and runner.Map would silently
// replace them.
func TestValidateRunFlags(t *testing.T) {
	for _, tc := range []struct {
		name          string
		scale         float64
		runs, workers int
		want          string // substring of the error; "" = valid
	}{
		{"blemesh run defaults", 1, 1, 0, ""},
		{"short scale, explicit workers", 0.01, 5, 3, ""},
		{"tiny scale", 1e-9, 1, 0, ""},
		{"zero scale", 0, 1, 0, "-scale = 0"},
		{"negative scale", -0.5, 1, 0, "-scale = -0.5"},
		{"NaN scale", math.NaN(), 1, 0, "-scale = NaN"},
		{"+Inf scale", math.Inf(1), 1, 0, "-scale = +Inf"},
		{"-Inf scale", math.Inf(-1), 1, 0, "-scale = -Inf"},
		{"zero runs", 1, 0, 0, "-runs = 0"},
		{"negative runs", 1, -3, 0, "-runs = -3"},
		{"negative workers", 1, 1, -1, "-workers = -1"},
		{"first offence wins", 0, 0, -1, "-scale = 0"},
	} {
		err := ValidateRunFlags(tc.scale, tc.runs, tc.workers)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: ValidateRunFlags() = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: ValidateRunFlags() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDenseIndexLookup cross-checks the dense id-indexed node table against
// an independently built reference map on generated topologies, including
// randomized out-of-range and gap probes: Node(id) and nodeByMAC(mac) must
// behave exactly like the map lookups they replaced.
func TestDenseIndexLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(60)
		topo := testbed.RandomGeometric(testbed.GeoConfig{
			Seed: int64(100 + trial), N: n,
			Width: 150, Height: 150, Range: 18})
		nw := BuildNetwork(NetworkConfig{
			Seed:     int64(trial),
			Topology: topo,
			Policy:   statconn.Static{Interval: 75 * sim.Millisecond},
			Shards:   1,
		})
		want := make(map[int]uint64, n)
		for _, id := range topo.Nodes() {
			want[id] = uint64(0x5A0000000000) + uint64(id)
		}
		if nw.NodeCount() != len(want) {
			t.Fatalf("trial %d: NodeCount %d, want %d", trial, nw.NodeCount(), len(want))
		}
		for id, mac := range want {
			node := nw.Node(id)
			if node == nil {
				t.Fatalf("trial %d: Node(%d) is nil", trial, id)
			}
			if got := uint64(node.DevAddr()); got != mac {
				t.Fatalf("trial %d: Node(%d) has MAC %012x, want %012x", trial, id, got, mac)
			}
			if nw.nodeByMAC(mac) != node {
				t.Fatalf("trial %d: nodeByMAC(%012x) does not round-trip", trial, mac)
			}
		}
		// Randomized negative probes: ids outside the dense range and MACs
		// off the 0x5A prefix must come back nil, exactly like map misses.
		for p := 0; p < 200; p++ {
			id := rng.Intn(4*n) - n
			if _, ok := want[id]; ok {
				continue
			}
			if got := nw.Node(id); got != nil {
				t.Fatalf("trial %d: Node(%d) = %v, want nil", trial, id, got)
			}
			mac := uint64(0x5A0000000000) + uint64(int64(id))
			if got := nw.nodeByMAC(mac); got != nil {
				t.Fatalf("trial %d: nodeByMAC(%012x) = %v, want nil", trial, mac, got)
			}
		}
	}
}

// TestPDRSeriesIsNetworkWide: a network of several sites keeps one PDR
// series, which every site's producers record into from their own lanes. Its
// length follows the simulated time alone — four sites hold as many buckets
// as one — and MergedSeries and CoAPPDR read it as it is.
func TestPDRSeriesIsNetworkWide(t *testing.T) {
	const bucket = sim.Second
	var sent1 uint64
	for _, sites := range []int{1, 4} {
		nw := BuildNetwork(NetworkConfig{Seed: 3, Topology: testbed.Forest(sites),
			Policy: statconn.Static{Interval: 75 * sim.Millisecond}, Shards: 2, SeriesBucket: bucket})
		if !nw.WaitTopology(60 * sim.Second) {
			t.Fatalf("%d sites: topology did not form", sites)
		}
		nw.StartTraffic(TrafficConfig{Interval: sim.Second, PayloadBytes: 39})
		nw.Run(20 * sim.Second)
		if nw.MergedSeries() != nw.Series {
			t.Fatalf("%d sites: MergedSeries is not the network's series", sites)
		}
		// The bucket slice is unexported; its length is the footprint.
		n := reflect.ValueOf(nw.Series).Elem().FieldByName("buckets").Len()
		if want := int(nw.Now()/bucket) + 1; n != want {
			t.Fatalf("%d sites: %d buckets at %v, want %d", sites, n, nw.Now(), want)
		}
		pdr := nw.CoAPPDR()
		t.Logf("%d sites: %d buckets, %d of %d requests answered", sites, n, pdr.Delivered, pdr.Sent)
		if pdr != nw.Series.Overall() || pdr.Sent == 0 {
			t.Fatalf("%d sites: CoAPPDR %+v, series overall %+v", sites, pdr, nw.Series.Overall())
		}
		if sites == 1 {
			sent1 = pdr.Sent
		} else if pdr.Sent < 3*sent1 {
			t.Fatalf("%d sites sent %d requests, one site %d: not every site records", sites, pdr.Sent, sent1)
		}
	}
}

// TestDot15d4NetworkSurface builds the paper tree on IEEE 802.15.4 and calls
// every exported Network method and Registry.Gather. A method with an empty
// value returns it, since there is no link to form, lose or meter. CrashNode,
// RestartNode and StartMeter have no empty value, so they panic with a
// message that names the link layer, never with a nil dereference. A method
// added to Network without a row here fails the test.
func TestDot15d4NetworkSurface(t *testing.T) {
	nw := BuildNetwork(NetworkConfig{Seed: 1, LinkLayer: LinkDot15d4})
	const leaf = 15
	// In order: the network forms, carries traffic, then is read.
	calls := []struct {
		name string
		call func() any
	}{
		{"WaitTopology", func() any { return nw.WaitTopology(sim.Second) }},
		{"WaitConverged", func() any { return nw.WaitConverged(sim.Second) }},
		{"Converged", func() any { return nw.Converged() }},
		{"NodeLinksUp", func() any { return nw.NodeLinksUp(leaf) }},
		{"StartTraffic", func() any { nw.StartTraffic(TrafficConfig{}); return nil }},
		{"Run", func() any { nw.Run(30 * sim.Second); return nil }},
		{"Now", func() any { return nw.Now() }},
		{"Processed", func() any { return nw.Processed() }},
		{"Consumer", func() any { return nw.Consumer().Name }},
		{"Node", func() any { return nw.Node(leaf).Name }},
		{"NodeCount", func() any { return nw.NodeCount() }},
		{"CoAPPDR", func() any { return nw.CoAPPDR() }},
		{"MergedRTTs", func() any { return nw.MergedRTTs().N() }},
		{"MergedSeries", func() any { return nw.MergedSeries().Overall() }},
		{"ConnLosses", func() any { return nw.ConnLosses() }},
		{"IntervalRejects", func() any { return nw.IntervalRejects() }},
		{"LLPDR", func() any { return nw.LLPDR() }},
		{"BufferDrops", func() any { return nw.BufferDrops() }},
		{"CoAPGiveUps", func() any { return nw.CoAPGiveUps() }},
		{"ReconnectLatencies", func() any { return nw.ReconnectLatencies().N() }},
		{"UpstreamConn", func() any { return nw.UpstreamConn(leaf) == nil }},
		{"Journeys", func() any { return len(nw.Journeys()) }},
		{"StreamErr", func() any { return nw.StreamErr() }},
		{"CrashNode", func() any { nw.CrashNode(leaf); return nil }},
		{"RestartNode", func() any { nw.RestartNode(leaf); return nil }},
		{"StartMeter", func() any { return nw.StartMeter(leaf) }},
	}
	rows := map[string]bool{}
	for _, c := range calls {
		rows[c.name] = true
	}
	typ := reflect.TypeOf(nw)
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; !rows[name] {
			t.Errorf("Network.%s has no row in this test", name)
		}
	}
	panics := map[string]bool{"CrashNode": true, "RestartNode": true, "StartMeter": true}
	got := map[string]any{}
	for _, c := range calls {
		func() {
			defer func() {
				r := recover()
				switch msg := fmt.Sprint(r); {
				case panics[c.name] && !strings.Contains(msg, "802.15.4"):
					t.Errorf("%s: panic %q, want one that names IEEE 802.15.4", c.name, msg)
				case !panics[c.name] && r != nil:
					t.Errorf("%s panicked: %v", c.name, r)
				}
			}()
			got[c.name] = c.call()
		}()
	}
	for name, want := range map[string]any{
		"WaitTopology": true, "WaitConverged": true, "Converged": true, "NodeLinksUp": true,
		"Consumer": "m3-1", "Node": "m3-15", "NodeCount": 15, "ConnLosses": uint64(0),
		"IntervalRejects": uint64(0), "ReconnectLatencies": 0, "UpstreamConn": true,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if pdr := nw.CoAPPDR(); pdr.Sent == 0 || pdr.Delivered == 0 {
		t.Errorf("CoAPPDR = %+v: the workload did not run", pdr)
	}
	if ll := nw.LLPDR(); !(ll > 0 && ll < 1) {
		t.Errorf("LLPDR = %v, want the MACs' first-try share, strictly inside (0, 1)", ll)
	}
	names := map[string]bool{}
	for _, smp := range nw.Registry.Gather() {
		names[smp.Name] = true
	}
	for _, want := range []string{"m3-15.coap", "m3-15.ip6", "net.coap_pdr", "net.ll_pdr", "net.rtt_seconds"} {
		if !names[want] {
			t.Errorf("Registry.Gather has no %s samples", want)
		}
	}
	for _, bleOnly := range []string{"m3-15.statconn", "m3-15.netif"} {
		if names[bleOnly] {
			t.Errorf("Registry.Gather has %s samples on an 802.15.4 network", bleOnly)
		}
	}
}
