package exp

import (
	"fmt"
	"strings"
	"testing"

	"blemesh/internal/fault"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// TestStaticModeHasNoRoutingFootprint pins the compatibility contract: a
// static-mode network must expose no rpl collectors and emit no rpl trace
// events — the dynamic plane must be entirely absent, not merely idle, so
// pre-routing exports stay byte-identical.
func TestStaticModeHasNoRoutingFootprint(t *testing.T) {
	var b strings.Builder
	if _, err := goldenRun(findGolden("tree"), 3, shipped(0), &b); err != nil {
		t.Fatal(err)
	}
	if static := b.String(); strings.Contains(static, ".rpl") || strings.Contains(static, "rpl-") {
		t.Fatal("static-mode export mentions rpl")
	}
	nw := BuildNetwork(NetworkConfig{Seed: 3, Topology: testbed.Tree(),
		Policy: statconn.Static{Interval: 75 * sim.Millisecond}})
	for id, n := range nw.Nodes {
		if n != nil && n.RPL != nil {
			t.Fatalf("static node %d has an RPL instance", id)
		}
	}
}

// TestRankTimelineReadsEveryRankEvent guards the selfheal loop check against
// checking nothing: on a short routed run with a forwarder reboot, the rank
// timelines hold one point per rpl-rank event, each at the event's typed
// rank, and the monotone-rank check has upward hops to test.
func TestRankTimelineReadsEveryRankEvent(t *testing.T) {
	nw := BuildNetwork(NetworkConfig{
		Seed:          3,
		Topology:      testbed.Mesh(),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
		Routing:       RoutingDynamic,
	})
	if !nw.WaitTopology(60*sim.Second) || !nw.WaitConverged(60*sim.Second) {
		t.Fatal("mesh did not form and converge within 60 s")
	}
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	plan := &fault.Plan{Events: []fault.Event{{At: 2 * sim.Second, Kind: fault.Reboot, Node: 2, Dwell: selfhealDwell}}}
	if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
		t.Fatal(err)
	}
	nw.Run(20 * sim.Second)

	events := nw.Trace.Events("", trace.KindRPLRank)
	timelines := rankTimelines(nw.Trace)
	points := 0
	for _, pts := range timelines {
		points += len(pts)
	}
	if len(events) == 0 || points != len(events) {
		t.Fatalf("rank timelines hold %d points for %d rpl-rank events", points, len(events))
	}
	next := make(map[string]int)
	for _, e := range events {
		p := timelines[e.Node][next[e.Node]]
		next[e.Node]++
		if rank, _, _ := e.Rank(); p.at != e.At || p.rank != rank || !strings.HasPrefix(e.Detail(), fmt.Sprintf("rank=%d ", rank)) {
			t.Fatalf("%s: point %+v for event %q", e.Node, p, e.Detail())
		}
	}
	if _, _, upHops := loopCheck(nw); upHops == 0 {
		t.Fatal("loop check tested no upward hop")
	}
}
