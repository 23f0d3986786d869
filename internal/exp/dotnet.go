package exp

import (
	"blemesh/internal/dot15d4"
	"blemesh/internal/metrics"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
	"blemesh/internal/testbed"
)

// DotNetwork is the IEEE 802.15.4 twin of Network: the same topology and
// the same CoAP benchmark application on m3-style nodes (Fig. 10). The
// medium is separate — the paper ran the two technologies at different
// testbed sites.
type DotNetwork struct {
	Sim    *sim.Sim
	Medium *phy.Medium
	Topo   testbed.Topology
	Nodes  map[int]*dot15d4.Node

	RTTs   *metrics.CDF
	Series *metrics.TimeSeries
}

// BuildDotNetwork assembles the 802.15.4 network.
func BuildDotNetwork(seed int64, topo testbed.Topology) *DotNetwork {
	s := sim.New(seed)
	medium := phy.NewMedium(s)
	nw := &DotNetwork{
		Sim:    s,
		Medium: medium,
		Topo:   topo,
		Nodes:  make(map[int]*dot15d4.Node),
		RTTs:   &metrics.CDF{},
		Series: metrics.NewTimeSeries(60 * sim.Second),
	}
	names := make(map[int]string)
	for _, d := range testbed.M3Nodes() {
		names[d.ID] = d.Name
	}
	ids := topo.Nodes()
	for _, id := range ids {
		nw.Nodes[id] = dot15d4.NewNode(s, medium, names[id], uint64(0x4D0000000000)+uint64(id))
	}
	// The same multi-hop routes as the BLE network: even though every m3
	// node hears every other, the benchmark forwards along the topology
	// (the paper uses identical route configuration on both platforms).
	for _, from := range ids {
		next := topo.NextHops(from)
		for dst, hop := range next {
			nw.Nodes[from].AddHostRoute(nw.Nodes[dst], nw.Nodes[hop])
		}
	}
	return nw
}

// StartTraffic mirrors Network.StartTraffic for the 802.15.4 nodes: the
// same producers, without the per-producer heatmap.
func (nw *DotNetwork) StartTraffic(t TrafficConfig) {
	t.defaults()
	consumer := nw.Nodes[nw.Topo.Consumer]
	consumer.Coap.Handler = sink
	tr := newTraffic(t, nw.Series)
	for _, id := range nw.Topo.Producers() {
		p := &producer{s: nw.Sim, ep: nw.Nodes[id].Coap, dst: consumer.Addr(), tr: tr, rtts: nw.RTTs}
		p.start()
	}
}

// Run advances the simulation by d.
func (nw *DotNetwork) Run(d sim.Duration) { nw.Sim.Run(nw.Sim.Now() + d) }

// CoAPPDR returns the overall delivery ratio.
func (nw *DotNetwork) CoAPPDR() metrics.Counter { return nw.Series.Overall() }
