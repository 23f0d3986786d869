package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"blemesh/internal/coap"
	"blemesh/internal/exp"
	"blemesh/internal/fault"
	"blemesh/internal/metrics"
	"blemesh/internal/sim"
	"blemesh/internal/testbed"
)

// Shape of the traced pass.
const (
	tracedReps     = 3  // repetitions traced on rep-based workloads
	tracedSegments = 20 // equal segments a traced repetition's run is cut into
	// A shared network's traced span is cut into twice its unit count, so
	// worker counts 1 and 2 alternate over an even number of segments.
	sharedSegmentsPerUnit = 2
)

// session is one built network on its way through a unit.
type session struct {
	w      *workload
	topo   testbed.Topology
	nw     *exp.Network
	stream *streamCounter
	tally  *tally
	// planned is the number of fault records the attached plan must leave
	// in the injector's log (the tally holds the injector).
	planned int
	// start is the simulated time the measured span begins; base the layer
	// counters at that moment.
	start sim.Time
	base  counts

	generateS, buildS, formS float64
	formed                   bool
}

// segment is one slice of a traced run: its host time, the worker lanes it
// ran on, and what each layer counted during it.
type segment struct {
	wallS float64
	snapS float64 // host time of the counter snapshot that closed it
	lanes int
	delta counts
}

// unitResult is what one measured unit yields.
type unitResult struct {
	wallS      float64 // host seconds from the first to the last simulated event of the span
	events     uint64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	segments   []segment // traced units only
}

// result is everything one run of one workload measured.
type result struct {
	w      *workload
	sz     size
	seed   int64
	traced bool

	setupS, generateS, buildS, formS []float64

	plain       []unitResult // tracing off: the end-to-end measurement
	tracedUnits []unitResult

	// Simulated outcome, pooled over the plain units.
	ops, delivered uint64
	rtts           metrics.CDF
	delta          counts // layer counters over the plain units' measured spans
	tracedDelta    counts
	nodes, sites   int
	routes         int             // largest sink route table met, sizes the lookup probe
	siteNodes      int             // nodes of the largest site, sizes the sim and phy probes
	sitePos        []testbed.Point // their positions, on geometric topologies
	siteRange      float64
	probes         probes
	reconnectP50S  float64
	gatherMS       []float64
	exportMS       []float64
	liveHeapMB     []float64 // after each unit that ends with its network
	digests        [][32]byte
	problems       []string
	spans          []span
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setup generates the topology, builds the network and forms it, up to the
// point traffic may start.
func setup(w *workload, seed int64, sz size, rec *recorder, unit int) *session {
	s := &session{w: w, stream: &streamCounter{}}
	// Start every set-up from a collected heap, as a fresh process would:
	// otherwise whether a collection falls inside a 3 ms set-up depends on
	// what the previous unit left behind, and the reading doubles or not.
	runtime.GC()
	s.generateS = rec.timed("testbed.generate", unit, func() {
		s.topo = w.topology(seed, sz.nodes)
	})
	s.buildS = rec.timed("exp.build", unit, func() {
		s.nw = exp.BuildNetwork(w.config(seed, s.topo, s.stream))
	})
	s.formS = rec.timed("exp.form", unit, func() {
		s.formed = w.form(s.nw, s.topo)
	})
	s.tally = newTally(s.nw, s.stream)
	return s
}

func (s *session) setupS() float64 { return s.generateS + s.buildS + s.formS }

// begin starts the open-loop producers and attaches the unit's fault plan,
// runs the untimed ramp, and marks the start of the measured span.
func (s *session) begin(total sim.Duration) error {
	s.nw.StartTraffic(s.w.traffic)
	if s.w.plan != nil {
		plan := s.w.plan(total)
		inj, err := fault.Attach(s.nw.Sim, s.nw, plan)
		if err != nil {
			return fmt.Errorf("attach fault plan: %w", err)
		}
		s.tally.inj, s.planned = inj, 2*len(plan.Events) // a reboot logs a crash and a restart
	}
	if s.w.ramp > 0 {
		s.nw.Run(s.w.ramp)
	}
	s.start = s.nw.Now()
	s.base = s.tally.snapshot()
	return nil
}

// measure advances the network by span and times it. With nseg > 1 the span
// is cut into equal segments with a counter snapshot after each; lanes, on
// sharded networks, sets the worker count per segment.
func (s *session) measure(rec *recorder, unit int, span sim.Duration, nseg int, lanes func(seg int) int) unitResult {
	var u unitResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := s.nw.Processed()
	run := rec.begin("exp.run", unit)
	t0 := time.Now()
	if nseg <= 1 {
		s.nw.Run(span)
	} else {
		prev := s.tally.snapshot()
		segSpan := span / sim.Duration(nseg)
		for i := 0; i < nseg; i++ {
			if i == nseg-1 {
				segSpan = span - segSpan*sim.Duration(nseg-1)
			}
			k := 1
			if s.nw.Sharded != nil {
				k = lanes(i)
				s.nw.Sharded.SetWorkers(k)
			}
			seg := rec.begin(fmt.Sprintf("exp.run.segment[%d]", i), unit)
			wall := rec.timed("sim.run", unit, func() { s.nw.Run(segSpan) })
			var cur counts
			snap := rec.timed("stats.snapshot", unit, func() { cur = s.tally.snapshot() })
			rec.end(seg)
			u.segments = append(u.segments, segment{wallS: wall, snapS: snap, lanes: k, delta: cur.sub(prev)})
			prev = cur
		}
	}
	u.wallS = time.Since(t0).Seconds()
	rec.end(run)
	u.events = s.nw.Processed() - e0
	runtime.ReadMemStats(&m1)
	u.mallocs = m1.Mallocs - m0.Mallocs
	u.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	u.gcCycles = m1.NumGC - m0.NumGC
	u.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return u
}

// digest hashes the network's metrics registry as exported. Two runs of one
// commit with one seed must agree on it byte for byte.
func (s *session) digest() ([32]byte, error) {
	h := sha256.New()
	if err := s.nw.Registry.WriteNDJSON(h); err != nil {
		return [32]byte{}, fmt.Errorf("export registry: %w", err)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// finish closes a session's measured span: pools its simulated outcome into
// the result and runs the correctness checks that need the network.
func (s *session) finish(r *result, rec *recorder, unit int, measured sim.Duration) [32]byte {
	nw := s.nw
	now := nw.Now()
	end := s.tally.snapshot()
	d := end.sub(s.base)

	var dg [32]byte
	r.gatherMS = append(r.gatherMS, 1e3*rec.timed("metrics.gather", unit, func() {
		var err error
		if dg, err = s.digest(); err != nil {
			r.problemf("unit %d: %v", unit, err)
		}
	}))
	r.exportMS = append(r.exportMS, 1e3*rec.timed("trace.export", unit, func() {
		if nw.Trace.Enabled() {
			if err := nw.Trace.WriteNDJSON(io.Discard); err != nil {
				r.problemf("unit %d: export trace: %v", unit, err)
			}
		}
	}))

	series := nw.MergedSeries()
	if rec == nil { // a plain unit: its outcome is the end-to-end measurement
		win := series.Window(s.start, now-drainWindow(measured))
		r.ops += win.Sent
		r.delivered += win.Delivered
		r.rtts.Merge(nw.MergedRTTs())
		r.delta = r.delta.add(d)
		if win.Delivered > win.Sent {
			r.problemf("unit %d: %d responses delivered for %d requests sent", unit, win.Delivered, win.Sent)
		}
	} else {
		r.tracedDelta = r.tracedDelta.add(d)
	}
	if !s.formed {
		r.problemf("unit %d: topology did not form", unit)
	}

	// CoAP conservation, over the network's whole life: every request sent
	// was matched, timed out, was given up, or is still in flight. In
	// flight cannot be read from outside, so it is bounded instead: never
	// negative, and — where no node reboots and drops its pending
	// exchanges — no more than what was sent in the last ResponseTimeout.
	resolved := end[cCoAPResponsesMatched] + end[cCoAPTimeouts] + end[cCoAPGiveUps]
	sent := end[cCoAPRequestsSent]
	if resolved > sent {
		r.problemf("unit %d: coap resolved %d exchanges of %d sent", unit, resolved, sent)
	} else if s.tally.inj == nil {
		recent := series.Window(now-coap.ResponseTimeout, now+sim.Second).Sent
		if inflight := sent - resolved; inflight > recent {
			r.problemf("unit %d: coap has %d exchanges unaccounted for, only %d sent within the response timeout",
				unit, inflight, recent)
		}
	}
	if s.tally.inj != nil {
		if got := int(end[cFaultExecuted]); got != s.planned {
			r.problemf("unit %d: fault plan executed %d records, planned %d", unit, got, s.planned)
		}
	}

	if rt := len(nw.Consumer().Stack.Routes()); rt > r.routes {
		r.routes = rt
	}
	if rl := nw.ReconnectLatencies(); rl.N() > 0 {
		r.reconnectP50S = rl.Quantile(0.5)
	}
	return dg
}

// liveHeapMB is the heap still reachable after two collections. It is taken
// at the end of a unit with the unit's network still alive.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runWorkload measures one workload once. With traced set it also runs the
// traced pass and the probes; the end-to-end numbers always come from units
// run with the recorder off.
func runWorkload(w *workload, seed int64, sz size, traced bool) *result {
	r := &result{w: w, sz: sz, seed: seed, traced: traced}
	var rec *recorder
	root := -1
	if traced {
		rec = newRecorder(w.name)
		root = rec.begin("workload", -1)
	}
	if w.shared {
		runShared(r, rec)
	} else {
		runReps(r, rec)
	}
	if traced {
		runProbes(r, rec)
		rec.end(root)
		r.spans = rec.spans
		if err := checkSpans(r.spans); err != nil {
			r.problemf("spans: %v", err)
		}
	}
	r.check()
	return r
}

func (r *result) noteSetup(s *session) {
	r.setupS = append(r.setupS, s.setupS())
	r.generateS = append(r.generateS, s.generateS)
	r.buildS = append(r.buildS, s.buildS)
	r.formS = append(r.formS, s.formS)
	sites := s.topo.Sites()
	r.nodes, r.sites = s.nw.NodeCount(), len(sites)
	largest := sites[0]
	for _, site := range sites {
		if len(site) > len(largest) {
			largest = site
		}
	}
	r.siteNodes, r.sitePos, r.siteRange = len(largest), nil, s.topo.Range
	if s.topo.Pos != nil {
		for _, id := range largest {
			r.sitePos = append(r.sitePos, s.topo.Pos[id])
		}
	}
}

// runReps measures a workload whose units are repetitions, each on its own
// network seeded seed+i. A traced run repeats the first repetitions twice —
// plain, and cut into segments with the recorder on — alternating which goes
// first, so neither side always runs on the other's warm heap.
func runReps(r *result, rec *recorder) {
	w, sz := r.w, r.sz
	units := sz.units
	if rec != nil && units > tracedReps {
		units = tracedReps
	}
	for i := 0; i < units; i++ {
		seed := r.seed + int64(i)
		var plainDigest, tracedDigest [32]byte
		plain := func() bool {
			s := setup(w, seed, sz, nil, i)
			r.noteSetup(s)
			if err := s.begin(sz.span); err != nil {
				r.problemf("unit %d: %v", i, err)
				return false
			}
			r.plain = append(r.plain, s.measure(nil, i, sz.span, 1, nil))
			plainDigest = s.finish(r, nil, i, sz.span)
			r.digests = append(r.digests, plainDigest)
			r.liveHeapMB = append(r.liveHeapMB, liveHeapMB())
			runtime.KeepAlive(s)
			return true
		}
		traced := func() bool {
			uid := rec.begin("unit", i)
			defer rec.end(uid)
			s := setup(w, seed, sz, rec, i)
			if err := s.begin(sz.span); err != nil {
				r.problemf("unit %d: %v", i, err)
				return false
			}
			r.tracedUnits = append(r.tracedUnits, s.measure(rec, i, sz.span, tracedSegments, nil))
			tracedDigest = s.finish(r, rec, i, sz.span)
			return true
		}
		switch {
		case rec == nil:
			if !plain() {
				return
			}
			continue
		case i%2 == 0:
			if !plain() || !traced() {
				return
			}
		default:
			if !traced() || !plain() {
				return
			}
		}
		if tracedDigest != plainDigest {
			r.problemf("unit %d: traced run digest %x differs from plain run %x", i, tracedDigest[:6], plainDigest[:6])
		}
	}
}

// runShared measures a workload whose units are consecutive segments of one
// network. Set-up is repeated to give setup_s a median; the last network is
// kept. A traced run sets up once, measures the units plain as the
// reference, then traces an equal further span in shorter segments that
// alternate one and two worker lanes.
func runShared(r *result, rec *recorder) {
	w, sz := r.w, r.sz
	setups := w.setups
	if rec != nil {
		setups = 1
	}
	var s *session
	uid := rec.begin("unit", 0)
	defer rec.end(uid)
	for k := 0; k < setups; k++ {
		s = nil // let the previous network go before the next is built
		s = setup(w, r.seed, sz, rec, 0)
		r.noteSetup(s)
	}
	measured := sz.span * sim.Duration(sz.units)
	if err := s.begin(measured); err != nil {
		r.problemf("%v", err)
		return
	}
	ref := rec.begin("exp.reference", 0) // the plain units, unrecorded inside
	for i := 0; i < sz.units; i++ {
		r.plain = append(r.plain, s.measure(nil, i, sz.span, 1, nil))
		if i == sz.units-1 {
			break // finish hashes the last unit
		}
		dg, err := s.digest()
		if err != nil {
			r.problemf("unit %d: %v", i, err)
		}
		r.digests = append(r.digests, dg)
	}
	r.digests = append(r.digests, s.finish(r, nil, sz.units-1, measured))
	r.liveHeapMB = append(r.liveHeapMB, liveHeapMB())
	rec.end(ref)
	if rec != nil {
		s.start, s.base = s.nw.Now(), s.tally.snapshot()
		nseg := sharedSegmentsPerUnit * sz.units
		r.tracedUnits = append(r.tracedUnits, s.measure(rec, 0, measured, nseg, func(seg int) int {
			if seg%2 == 0 {
				return 1
			}
			return w.lanes
		}))
		s.finish(r, rec, 0, measured) // the traced span is not part of the sim digest
	}
	runtime.KeepAlive(s)
}

// simDigest folds the unit digests into the workload's.
func (r *result) simDigest() string {
	h := sha256.New()
	for _, d := range r.digests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check runs the correctness checks that need the pooled outcome.
func (r *result) check() {
	w := r.w
	if r.ops == 0 {
		r.problemf("no requests in the measured window")
		return
	}
	if r.rtts.N() == 0 {
		r.problemf("no RTT samples")
	}
	if !r.sz.full || r.traced {
		return
	}
	pdr := float64(r.delivered) / float64(r.ops)
	if pdr < w.pdrBand[0] || pdr > w.pdrBand[1] {
		r.problemf("coap_pdr %.4f outside the workload's sanity band [%g, %g]", pdr, w.pdrBand[0], w.pdrBand[1])
	}
	if w.plan != nil {
		// The fault plan must still break routes: a rebooted forwarder makes
		// its children switch parent, and now and then leaves one with no
		// parent at all.
		reboots := r.delta[cFaultExecuted] / 2
		if sw, rep := r.delta[cRPLParentSwitches], r.delta[cRPLLocalRepairs]; sw < reboots || rep < 1 {
			r.problemf("%d rpl parent switches and %d local repairs for %d reboots: the fault plan no longer breaks routes",
				sw, rep, reboots)
		}
	}
}
