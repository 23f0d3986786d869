package exp

import (
	"fmt"
	"strings"
	"testing"

	"blemesh/internal/fault"
	"blemesh/internal/runner"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// routedExport drives a short churn workload on the braided mesh with the
// dynamic routing plane enabled and returns the full observable output
// (flight-recorder NDJSON + unified-metrics NDJSON). It is the dynamic-mode
// sibling of engineExport: trickle timers, DIO fan-out, parent reselection,
// and DAO re-advertisement all draw from the simulation's RNG and timer
// machinery, so byte equality of this export pins the entire routing plane.
func routedExport(engine sim.Engine, seed int64) (string, error) {
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Engine:        engine,
		Topology:      testbed.Mesh(),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
		Routing:       RoutingDynamic,
	})
	if !nw.WaitTopology(60 * sim.Second) {
		return "", fmt.Errorf("engine %v seed %d: topology did not form within 60s", engine, seed)
	}
	if !nw.WaitConverged(60 * sim.Second) {
		return "", fmt.Errorf("engine %v seed %d: DODAG did not converge within 60s", engine, seed)
	}
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	nw.Run(10 * sim.Second)
	// Reboot a depth-1 forwarder mid-traffic: parent loss, poisoning, local
	// repair, and DAO re-plumbing all cross the timer paths at once.
	plan := &fault.Plan{Events: []fault.Event{
		{At: 0, Kind: fault.Reboot, Node: 2, Dwell: selfhealDwell},
	}}
	if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
		return "", err
	}
	nw.Run(30 * sim.Second)
	var b strings.Builder
	if err := nw.Trace.WriteNDJSON(&b); err != nil {
		return "", err
	}
	if err := nw.Registry.WriteNDJSON(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// TestRoutedEngineEquivalence runs 8 seeds of the dynamic-routing churn
// workload on both event-queue engines and requires byte-identical trace and
// metrics exports — the selfheal scenario must be exactly reproducible no
// matter which engine backs the run.
func TestRoutedEngineEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		heap, err := routedExport(sim.EngineHeap, seed)
		if err != nil {
			t.Fatal(err)
		}
		wheel, err := routedExport(sim.EngineWheel, seed)
		if err != nil {
			t.Fatal(err)
		}
		if heap == "" {
			t.Fatalf("seed %d: empty export", seed)
		}
		if wheel != heap {
			n, g, w := firstDiff(wheel, heap)
			t.Fatalf("seed %d: engines diverge at line %d:\n  wheel: %s\n  heap:  %s",
				seed, n, g, w)
		}
	}
}

// TestRoutedByteIdenticalAcrossWorkers runs the 8-seed routed workload
// through the parallel runner at worker counts 1, 3, and 8 and requires the
// concatenated exports to be byte-identical: each seed's network is
// hermetic, so scheduling the runs across OS threads must not change a
// single byte of any of them.
func TestRoutedByteIdenticalAcrossWorkers(t *testing.T) {
	const seeds = 8
	export := func(workers int) string {
		outs, err := runner.Map(seeds, runner.Options{Workers: workers, Name: "routed"},
			func(job int) (string, error) {
				return routedExport(sim.EngineWheel, int64(job+1))
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return strings.Join(outs, "\n--\n")
	}
	serial := export(1)
	for _, workers := range []int{3, 8} {
		if got := export(workers); got != serial {
			n, g, w := firstDiff(got, serial)
			t.Fatalf("workers=%d output differs from serial at line %d:\n  got:  %s\n  want: %s",
				workers, n, g, w)
		}
	}
}

// TestStaticModeHasNoRoutingFootprint pins the compatibility contract: a
// static-mode network must expose no rpl collectors and emit no rpl trace
// events — the dynamic plane must be entirely absent, not merely idle, so
// pre-routing exports stay byte-identical.
func TestStaticModeHasNoRoutingFootprint(t *testing.T) {
	static := engineExport(t, sim.EngineWheel, 3, false)
	if strings.Contains(static, ".rpl") || strings.Contains(static, "rpl-") {
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
