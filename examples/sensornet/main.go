// Sensornet: the paper's telemetry scenario on the full 15-node tree.
//
// Fourteen producers periodically GET the consumer (the tree root, the
// paper's border-router position) with the §4.3 workload: CoAP
// non-confirmable requests with 39-byte payloads, 1s ±0.5s apart. After ten
// simulated minutes the example prints the metrics the paper reports:
// CoAP PDR over time, the RTT distribution, link-layer statistics, and the
// per-node energy budget.
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"sort"

	"blemesh"
)

func main() {
	nw := blemesh.BuildNetwork(blemesh.NetworkConfig{
		Seed:     7,
		Topology: blemesh.Tree(),
		// The paper's mitigation: randomized connection intervals, kept
		// unique per node, in a window around the 75ms default.
		Policy:       blemesh.RandomIntervals{Min: 65 * blemesh.Millisecond, Max: 85 * blemesh.Millisecond},
		JamChannel22: true,
	})
	if !nw.WaitTopology(60 * blemesh.Second) {
		fmt.Println("warning: not all links formed in 60s")
	}
	fmt.Printf("topology up after %v (14 links)\n", nw.Sim.Now())

	// Energy meters cover the traffic phase only.
	ids := nw.Cfg.Topology.Nodes()
	sort.Ints(ids)
	meters := make([]*blemesh.EnergyMeter, len(ids))
	for i, id := range ids {
		meters[i] = nw.StartMeter(id)
	}
	nw.StartTraffic(blemesh.TrafficConfig{}) // 1s ±0.5s, 39-byte payloads
	nw.Run(10 * blemesh.Minute)

	pdr := nw.CoAPPDR()
	fmt.Printf("\nCoAP PDR %.4f%% (%d/%d), connection losses %d, LL PDR %.4f\n",
		100*pdr.Rate(), pdr.Delivered, pdr.Sent, nw.ConnLosses(), nw.LLPDR())
	fmt.Print(nw.Series.ASCII("PDR/min "))
	fmt.Println()
	fmt.Print(nw.MergedRTTs().ASCII(60, 8, "RTT CDF [s]"))

	// Energy: the paper's battery-life argument, per node.
	fmt.Println("\nper-node radio current (µA) and coin-cell life (days):")
	for i, id := range ids {
		rep := meters[i].Report(nw.Sim.Now())
		fmt.Printf("  node %2d (%s): %6.1fµA radio, %6.1fµA total → %5.0f days\n",
			id, nw.Nodes[id].Name, rep.RadioCurrent, rep.AvgCurrent,
			230.0*1000/rep.AvgCurrent/24)
	}
}
