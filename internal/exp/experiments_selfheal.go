package exp

import (
	"fmt"

	"blemesh/internal/fault"
	"blemesh/internal/metrics"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

func init() {
	register(Experiment{
		ID:     "selfheal",
		Title:  "Self-healing dynamic routing: RPL-lite repair under forwarder churn",
		Figure: "robustness extension (dynamic routing, beyond the paper's testbed)",
		Run:    runSelfHeal,
	})
}

// selfhealVictims are the mesh's depth-1 forwarders: each carries a third of
// the network's upward traffic, and every node below depth 1 has a second
// parent to fall back to — so killing one exercises local repair rather than
// partitioning the network.
var selfhealVictims = []int{2, 3, 4}

// selfhealDwell is how long a rebooted forwarder stays powered off.
const selfhealDwell = 10 * sim.Second

// runSelfHeal drives forwarder churn against the dynamic routing plane and
// measures how routing (not just the links) heals: the latency from each
// crash until the surviving DODAG has fully reconverged (every running node
// joined, its parent chain reaching the root, and the root holding its DAO
// host route), the delivery ratio sustained inside the fault window compared
// with a statically routed baseline on the same topology and fault plan, and
// a loop-freedom check over every forwarded packet's provenance trace.
func runSelfHeal(o Options) *Report {
	o.defaults()
	r := newReport("selfheal", "Self-healing dynamic routing: RPL-lite repair under forwarder churn")
	dur := hour(o)
	warm := dur / 4
	faultWin := dur / 2
	tail := dur - warm - faultWin

	nw := BuildNetwork(NetworkConfig{
		Seed:          o.Seed,
		Topology:      testbed.Mesh(),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		SeriesBucket:  10 * sim.Second,
		Routing:       RoutingDynamic,
		Trace:         true,
		TraceCapacity: 1 << 18,
	})
	if !nw.WaitTopology(60 * sim.Second) {
		r.addf("topology did not form within 60s")
		return r
	}
	linksAt := nw.Sim.Now()
	if !nw.WaitConverged(120 * sim.Second) {
		r.addf("DODAG did not converge within 120s of link formation")
		return r
	}
	r.addf("links up at t=%v, DODAG converged %.2fs later (all %d nodes joined, DAO routes in place)",
		linksAt, (nw.Sim.Now() - linksAt).Seconds(), nw.NodeCount())
	r.set("form_s", (nw.Sim.Now() - linksAt).Seconds())
	nw.Run(10 * sim.Second) // settle
	trafficStart := nw.Sim.Now()
	nw.StartTraffic(TrafficConfig{})
	nw.Run(warm)

	// Script the forwarder reboots, evenly spaced through the fault window.
	attachAt := nw.Sim.Now()
	gap := faultWin / sim.Duration(len(selfhealVictims))
	plan := &fault.Plan{}
	for i, v := range selfhealVictims {
		plan.Events = append(plan.Events, fault.Event{
			At: sim.Duration(i) * gap, Kind: fault.Reboot, Node: v, Dwell: selfhealDwell,
		})
	}
	inj, err := fault.Attach(nw.Sim, nw, plan)
	if err != nil {
		r.addf("fault plan rejected: %v", err)
		return r
	}
	// Repair latency: from the instant a forwarder dies until Converged()
	// holds again over the survivors — every running node re-homed through
	// an alternate parent and the root re-learned its DAO routes. This is a
	// routing-plane criterion, strictly stronger than links-up.
	repairLat := &metrics.CDF{}
	repair := make([]sim.Duration, len(selfhealVictims))
	for i := range repair {
		repair[i] = -1
	}
	for i := range selfhealVictims {
		i := i
		crashAt := attachAt + sim.Duration(i)*gap
		var poll func()
		poll = func() {
			if nw.Converged() {
				repair[i] = nw.Sim.Now() - crashAt
				repairLat.AddDuration(repair[i])
				return
			}
			nw.Sim.Post(250*sim.Millisecond, poll)
		}
		// First poll shortly after the crash: Converged is already false at
		// crash+ε because the victim's dependents still prefer a dead node.
		nw.Sim.Post(crashAt-nw.Sim.Now()+250*sim.Millisecond, poll)
	}
	nw.Run(faultWin)
	nw.Run(tail)
	end := nw.Sim.Now()

	pre := nw.Series.Window(trafficStart, attachAt)
	mid := nw.Series.Window(attachAt, attachAt+faultWin)
	post := nw.Series.Window(attachAt+faultWin, end)
	r.addf("phases: warm-up %v, fault window %v (%d forwarder reboots, dwell %v), tail %v",
		warm, faultWin, len(selfhealVictims), selfhealDwell, tail)
	r.addf("pre-fault     PDR %.4f (%d/%d)", pre.Rate(), pre.Delivered, pre.Sent)
	r.addf("fault window  PDR %.4f (%d/%d)", mid.Rate(), mid.Delivered, mid.Sent)
	r.addf("post-recovery PDR %.4f (%d/%d)", post.Rate(), post.Delivered, post.Sent)
	r.addBlock(nw.Series.ASCII("  PDR/10s"))
	r.set("pre_pdr", pre.Rate())
	r.set("fault_pdr", mid.Rate())
	r.set("post_pdr", post.Rate())
	r.set("overall_pdr", nw.CoAPPDR().Rate())

	for i, v := range selfhealVictims {
		crashAt := attachAt + sim.Duration(i)*gap
		rs := -1.0
		if repair[i] >= 0 {
			rs = repair[i].Seconds()
		}
		w := nw.Series.Window(crashAt, crashAt+selfhealDwell)
		r.addf("node %d: down %v at t=%v; routing reconverged %.2fs after the crash (PDR during outage %.4f)",
			v, selfhealDwell, crashAt, rs, w.Rate())
		r.set(fmt.Sprintf("repair_s_node%d", v), rs)
	}
	if repairLat.N() > 0 {
		r.addf("repair convergence latency (%d/%d repairs observed): p50 %.2fs p95 %.2fs max %.2fs",
			repairLat.N(), len(selfhealVictims), repairLat.Median(),
			repairLat.Quantile(0.95), repairLat.Max())
		r.set("repair_p50_s", repairLat.Median())
		r.set("repair_p95_s", repairLat.Quantile(0.95))
		r.set("repair_max_s", repairLat.Max())
	}
	r.set("repairs_observed", float64(repairLat.N()))

	// Routing-plane activity, summed across nodes.
	var switches, repairs, joins, dio, dao uint64
	for _, id := range nw.Cfg.Topology.Nodes() {
		st := nw.Nodes[id].RPL.Stats()
		switches += st.ParentSwitches
		repairs += st.LocalRepairs
		joins += st.Joins
		dio += st.DIOSent
		dao += st.DAOSent
	}
	r.addf("routing activity: %d joins, %d parent switches, %d local repairs, %d DIOs, %d DAOs sent",
		joins, switches, repairs, dio, dao)
	r.set("parent_switches", float64(switches))
	r.set("local_repairs", float64(repairs))
	r.set("dio_sent", float64(dio))
	r.set("faults", float64(len(inj.Log())))
	r.addf("fault log:")
	for _, rec := range inj.Log() {
		r.addf("  %v", rec)
	}

	// Loop freedom, checked two ways over the provenance traces: no packet
	// ever revisits a node (the operational definition of a routing loop),
	// and upward forwarding is monotone in rank — every consumer-bound hop
	// goes from a higher-rank node to a lower-rank one, reconstructed from
	// the rank-transition timeline each node emitted.
	loops, rankViol, upHops := loopCheck(nw)
	r.addf("loop check: %d node-revisit loops, %d rank-monotonicity violations over %d upward forwarded hops",
		loops, rankViol, upHops)
	r.set("routing_loops", float64(loops))
	r.set("rank_violations", float64(rankViol))
	r.set("upward_hops_checked", float64(upHops))

	// Static baseline: the identical mesh, traffic, and fault plan, but with
	// provisioned routes — the paper's configuration. Static routes pin each
	// node to one precomputed path, so a dead forwarder blacks out its whole
	// subtree for the full dwell; the in-churn PDR difference is what the
	// dynamic plane buys.
	base := BuildNetwork(NetworkConfig{
		Seed:         o.Seed,
		Topology:     testbed.Mesh(),
		Policy:       statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22: true,
		SeriesBucket: 10 * sim.Second,
	})
	if !base.WaitTopology(60 * sim.Second) {
		r.addf("static baseline: topology did not form within 60s")
		r.set("baseline_fault_pdr", -1)
		return r
	}
	// Align the baseline's fault window with the dynamic run's phase plan.
	base.Run(10 * sim.Second)
	base.StartTraffic(TrafficConfig{})
	base.Run(warm)
	baseAttach := base.Sim.Now()
	if _, err := fault.Attach(base.Sim, base, plan); err != nil {
		r.addf("static baseline: fault plan rejected: %v", err)
		return r
	}
	base.Run(faultWin)
	base.Run(tail)
	bmid := base.Series.Window(baseAttach, baseAttach+faultWin)
	r.addf("static baseline fault-window PDR %.4f (%d/%d); dynamic sustains %+.4f",
		bmid.Rate(), bmid.Delivered, bmid.Sent, mid.Rate()-bmid.Rate())
	r.set("baseline_fault_pdr", bmid.Rate())
	r.set("fault_pdr_gain", mid.Rate()-bmid.Rate())
	return r
}

// rankPoint is one node's advertised rank from a moment onward.
type rankPoint struct {
	at   sim.Time
	rank uint16
}

// rankTimelines reconstructs each node's rank timeline from its rpl-rank
// transitions: one point per event.
func rankTimelines(l *trace.Log) map[string][]rankPoint {
	timeline := make(map[string][]rankPoint)
	for _, e := range l.Events("", trace.KindRPLRank) {
		rank, _, _ := e.Rank()
		timeline[e.Node] = append(timeline[e.Node], rankPoint{at: e.At, rank: rank})
	}
	return timeline
}

// loopCheck scans the provenance journeys for routing loops. It returns the
// number of journeys that revisited a node, the number of consumer-bound
// hops that went rank-upward (both endpoint ranks known at forwarding time),
// and how many upward hops were checked.
func loopCheck(nw *Network) (loops, rankViol, upHops int) {
	timeline := rankTimelines(nw.Trace)
	rankAt := func(node string, t sim.Time) (uint16, bool) {
		pts := timeline[node]
		for i := len(pts) - 1; i >= 0; i-- {
			if pts[i].at <= t {
				return pts[i].rank, true
			}
		}
		return 0, false
	}
	consumer := nw.Consumer().Name
	for _, j := range nw.Journeys() {
		if len(j.Hops) == 0 {
			continue
		}
		visited := map[string]bool{j.Hops[0].From: true}
		looped := false
		for _, h := range j.Hops {
			if visited[h.To] {
				looped = true
			}
			visited[h.To] = true
		}
		if looped {
			loops++
		}
		// Monotone rank applies to upward (consumer-bound) traffic only;
		// responses ride DAO host routes back down, where rank increases by
		// design.
		if !j.Delivered || j.Final != consumer {
			continue
		}
		for _, h := range j.Hops {
			rf, okf := rankAt(h.From, h.Start)
			rt, okt := rankAt(h.To, h.Start)
			if !okf || !okt {
				continue
			}
			upHops++
			if rf <= rt {
				rankViol++
			}
		}
	}
	return loops, rankViol, upHops
}
