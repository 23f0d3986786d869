package rpl

import (
	"bytes"
	"sort"

	"blemesh/internal/ip6"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// Rank constants, scaled like RFC 6550's default OF0 (MinHopRankIncrease
// 256): one perfect hop costs 256 rank units, a terrible hop up to 1024.
const (
	// RankInfinite marks a detached node (and poisons a sub-DODAG when
	// advertised in a DIO).
	RankInfinite = 0xFFFF
	// MinHopRankIncrease is the smallest rank step one hop may add; it is
	// what makes rank strictly monotone along every parent chain.
	MinHopRankIncrease = 256
	// RootRank is the DODAG root's rank.
	RootRank = 256
	// maxHopRankIncrease caps one hop's cost (ETX 4 quantized).
	maxHopRankIncrease = 1024
	// port is the UDP port control messages use (CoAP sits on 5683).
	port = 5250
	// sweepEvery is the housekeeping cadence: parent-deadline pruning and
	// DIS re-solicitation while detached.
	sweepEvery = sim.Second
)

// Protocol constants: RFC 6206's trickle parameters as RIOT's RPL runs them,
// and the DODAG's repair bounds.
const (
	// imin is the trickle minimum interval.
	imin = 500 * sim.Millisecond
	// doublings sets Imax = imin << doublings (32 s).
	doublings = 6
	// redundancy is the trickle redundancy constant k.
	redundancy = 3
	// parentTimeout detaches from a parent not heard for 3×Imax. Link-down
	// signals from statconn cut repair far shorter; this deadline is the
	// backstop for silent peers.
	parentTimeout = 3 * (imin << doublings)
	// daoInterval is the upward route refresh period.
	daoInterval = 15 * sim.Second
	// hysteresis is the rank improvement a new parent must offer before a
	// joined node switches (¾ hop) — the anti-flap margin.
	hysteresis = 192
	// maxRankIncrease bounds rank growth over the lowest rank attained in
	// the current version; exceeding it forces a detach instead of
	// counting to infinity through one's own sub-DODAG.
	maxRankIncrease = 768
	// maxETX clamps the link metric: BLE retransmits hard before links get
	// worse than that.
	maxETX = 4
)

// Config parameterises an instance.
type Config struct {
	// Root makes this node the DODAG root: rank RootRank, origin of the
	// version number, sink of all DAO host routes.
	Root bool
}

// Stats counts control-plane events. Cumulative across Stop/Start — it
// models the observer, like every other stats block in the platform.
type Stats struct {
	DIOSent         uint64 `metric:"dio_sent"`
	DIORecv         uint64 `metric:"dio_recv"`
	DAOSent         uint64 `metric:"dao_sent"`
	DAORecv         uint64 `metric:"dao_recv"`
	DISSent         uint64 `metric:"dis_sent"`
	DISRecv         uint64 `metric:"dis_recv"`
	DecodeErrors    uint64 `metric:"decode_errors"`
	TrickleResets   uint64 `metric:"trickle_resets"`
	TrickleSuppress uint64 `metric:"trickle_suppressed"`
	ParentSwitches  uint64 `metric:"parent_switches"`
	LocalRepairs    uint64 `metric:"local_repairs"`
	Joins           uint64 `metric:"joins"`
}

// parentInfo is what we know about one parent candidate, refreshed by its
// DIOs.
type parentInfo struct {
	rank      uint16
	lastHeard sim.Time
}

// daoEntry is one stored downward target (storing mode): which child it is
// reachable through and how fresh the advertisement was.
type daoEntry struct {
	viaMAC uint64
	seq    uint16
}

// Instance is one node's RPL-lite state machine, bound to its ip6 stack.
// All map iteration is sorted and Stop cancels every timer the instance
// holds: the instance must behave identically under every event-engine and
// worker configuration.
type Instance struct {
	s     *sim.Sim
	stack *ip6.Stack
	cfg   Config

	tr   *trace.Log
	node string
	// etx gives a neighbor's expected transmission count; nil reads every
	// link as perfect. core wires it to statconn's PeerETX.
	etx LinkMetric

	running bool
	started bool
	// refresh and tick are the pending DAO refresh (non-root only) and
	// housekeeping sweep; Stop cancels both.
	refresh, tick sim.Timer

	version    uint16
	rank       uint16
	lowestRank uint16 // lowest rank attained this version (repair bound)
	root       ip6.Addr
	preferred  uint64 // preferred parent MAC; 0 = none

	neighbors map[uint64]bool
	parents   map[uint64]*parentInfo
	downward  map[ip6.Addr]daoEntry
	daoSeq    uint16

	trick *trickle
	stats Stats
}

// New binds an instance to a stack. The UDP control port is claimed
// immediately (handlers survive node reboots, like the CoAP server's);
// routing activity begins at Start.
func New(s *sim.Sim, stack *ip6.Stack, cfg Config) *Instance {
	in := &Instance{
		s:          s,
		stack:      stack,
		cfg:        cfg,
		rank:       RankInfinite,
		lowestRank: RankInfinite,
		neighbors:  make(map[uint64]bool),
		parents:    make(map[uint64]*parentInfo),
		downward:   make(map[ip6.Addr]daoEntry),
	}
	in.trick = newTrickle(s, imin, doublings, redundancy, in)
	stack.ListenUDP(port, in.handleUDP)
	return in
}

// SetTrace wires the instance to the shared trace log under a node name.
func (in *Instance) SetTrace(l *trace.Log, node string) {
	in.tr = l
	in.node = node
}

// LinkMetric is the routing metric's source: ETX returns the expected
// transmission count toward the neighbor mac.
type LinkMetric interface{ ETX(mac uint64) float64 }

// SetETX injects the link metric source (statconn's PeerETX in production).
func (in *Instance) SetETX(m LinkMetric) { in.etx = m }

// Rank returns the node's current rank (RankInfinite = detached).
func (in *Instance) Rank() uint16 { return in.rank }

// Preferred returns the preferred parent's MAC (0 = none).
func (in *Instance) Preferred() uint64 { return in.preferred }

// Joined reports whether the node is part of the DODAG.
func (in *Instance) Joined() bool { return in.rank != RankInfinite }

// Version returns the DODAG version this node operates in.
func (in *Instance) Version() uint16 { return in.version }

// Stats returns a copy of the control-plane counters.
func (in *Instance) Stats() Stats { return in.stats }

// Start begins (or resumes, after Stop) routing. A restarting root bumps
// the DODAG version — the RFC 6550 global-repair signal — so survivors
// discard state anchored in the pre-crash DODAG.
func (in *Instance) Start() {
	if in.running {
		return
	}
	in.running = true
	if in.cfg.Root {
		if in.started {
			in.version++
		} else {
			in.version = 1
		}
		in.rank = RootRank
		in.lowestRank = RootRank
		in.root = in.stack.GlobalAddr()
		in.emitRank(trace.RankRoot)
		in.trick.start()
	} else {
		in.refresh = in.s.Schedule(in.s.Now()+daoInterval, (*rplRefresh)(in))
	}
	in.tick = in.s.Schedule(in.s.Now()+sweepEvery, (*rplTick)(in))
	in.started = true
}

// rplRefresh is the DAO refresh: periodic upward re-advertisement of our
// own address keeps host routes alive across seq-based dedup. rplTick is
// the housekeeping sweep.
type (
	rplRefresh Instance
	rplTick    Instance
)

func (h *rplRefresh) Fire() {
	in := (*Instance)(h)
	if in.preferred != 0 {
		in.sendDAO()
	}
	in.refresh = in.s.Schedule(in.s.Now()+daoInterval, h)
}

func (h *rplTick) Fire() {
	in := (*Instance)(h)
	in.sweep()
	in.tick = in.s.Schedule(in.s.Now()+sweepEvery, h)
}

// Stop halts routing, as the host side of a crash: volatile DODAG state is
// lost (rank, parents, stored targets), counters survive. The ip6 stack's
// own Reset clears the routes this instance installed.
func (in *Instance) Stop() {
	if !in.running {
		return
	}
	in.running = false
	in.s.Cancel(in.refresh)
	in.s.Cancel(in.tick)
	in.trick.stop()
	in.rank = RankInfinite
	in.lowestRank = RankInfinite
	in.preferred = 0
	in.neighbors = make(map[uint64]bool)
	in.parents = make(map[uint64]*parentInfo)
	in.downward = make(map[ip6.Addr]daoEntry)
}

// LinkUp tells the instance a usable link to a neighbor appeared. The new
// neighbor is solicited immediately (DIS) — joining must not wait out a
// trickle interval.
func (in *Instance) LinkUp(mac uint64) {
	if !in.running || in.neighbors[mac] {
		return
	}
	in.neighbors[mac] = true
	in.sendCtrl(mac, Message{Type: TypeDIS})
	if in.Joined() {
		// A node that just (re)appeared likely needs our DIO soon:
		// treat the topology change as an inconsistency.
		in.trickleReset()
	}
}

// LinkDown tells the instance a link died: every route over it is invalid
// now, and losing the preferred parent starts a local repair. This is the
// fast path of failure detection — supervision timeouts fire in seconds,
// the missed-DIO deadline in minutes.
func (in *Instance) LinkDown(mac uint64) {
	if !in.running || !in.neighbors[mac] {
		return
	}
	delete(in.neighbors, mac)
	in.stack.RemoveRoutesVia(ip6.LinkLocal(mac))
	in.dropDownwardVia(mac)
	delete(in.parents, mac)
	if in.preferred == mac {
		in.preferred = 0
		in.reselectParent(trace.RankParentLinkDown)
	}
}

// handleUDP is the control-port demultiplexer.
func (in *Instance) handleUDP(src ip6.Addr, srcPort uint16, payload []byte) {
	if !in.running {
		return
	}
	mac, ok := src.MAC()
	if !ok || !in.neighbors[mac] {
		return
	}
	m, err := DecodeMessage(payload)
	if err != nil {
		in.stats.DecodeErrors++
		return
	}
	if in.tr.Enabled() {
		in.tr.Add(in.node, 0, 0, trace.RPLRx(m.Type, mac, m.Rank))
	}
	switch m.Type {
	case TypeDIO:
		in.handleDIO(mac, m)
	case TypeDAO:
		in.handleDAO(mac, m)
	case TypeDIS:
		in.handleDIS(mac)
	}
}

// handleDIO folds a neighbor's announcement into the parent set and
// re-evaluates.
func (in *Instance) handleDIO(mac uint64, m Message) {
	in.stats.DIORecv++
	if in.cfg.Root {
		// The root only counts sub-DODAG chatter toward suppression.
		if m.Version == in.version {
			in.trick.hear()
		}
		return
	}
	if m.Rank == RankInfinite {
		// Poison: the sender detached. Drop it as a candidate; losing
		// the preferred parent this way starts a repair.
		delete(in.parents, mac)
		in.trickleReset()
		if in.preferred == mac {
			in.preferred = 0
			in.stack.RemoveRoute(ip6.Unspecified, 0)
			in.reselectParent(trace.RankParentPoisoned)
		}
		return
	}
	if seqNewer(m.Version, in.version) {
		// New DODAG version (global repair): old rank bounds are void.
		in.version = m.Version
		in.lowestRank = RankInfinite
		in.trickleReset()
	} else if m.Version != in.version {
		return // stale version: not a usable candidate
	}
	in.root = m.Root
	in.parents[mac] = &parentInfo{rank: m.Rank, lastHeard: in.s.Now()}
	in.trick.hear()
	in.reselectParent(trace.RankDIO)
}

// handleDIS answers a solicitation with an immediate unicast DIO.
func (in *Instance) handleDIS(mac uint64) {
	in.stats.DISRecv++
	if in.Joined() {
		in.sendDIO(mac)
	}
}

// handleDAO installs a downward host route (storing mode) and propagates
// the target toward the root.
func (in *Instance) handleDAO(mac uint64, m Message) {
	in.stats.DAORecv++
	if m.Target == in.stack.GlobalAddr() {
		return
	}
	if !in.cfg.Root && !in.Joined() {
		return // nowhere to store or forward toward
	}
	e, known := in.downward[m.Target]
	if m.Flags&FlagNoPath != 0 {
		// No-path: a descendant lost this target. Only honoured from the
		// branch the entry actually points into — a fresher DAO over a new
		// path owns the target and must not be purged by a stale no-path.
		if !known || e.viaMAC != mac {
			return
		}
		in.purgeDownward(m.Target)
		if !in.cfg.Root && in.preferred != 0 {
			in.sendCtrl(in.preferred, m)
		}
		return
	}
	if known && !seqNewer(m.Seq, e.seq) {
		// Freshness is per target, not per branch. Same via: a duplicate
		// refresh, already stored and forwarded. Different via: a stale
		// echo — e.g. a re-homing descendant readvertising an entry it
		// learned when the paths ran the other way around. Letting an
		// old-seq advertisement displace the entry builds two-node cycles
		// (A says "via B", B says "via A"), so only a strictly newer seq
		// may move a target to a new branch.
		return
	}
	in.downward[m.Target] = daoEntry{viaMAC: mac, seq: m.Seq}
	_ = in.stack.AddRoute(ip6.Route{Dst: m.Target, PrefixLen: 128, NextHop: ip6.LinkLocal(mac)})
	if !in.cfg.Root && in.preferred != 0 {
		in.sendCtrl(in.preferred, m)
	}
}

// purgeDownward forgets one stored target and replaces its host route with
// an on-link sentinel (empty next hop): packets for a purged target deliver
// directly if the target happens to be a live neighbor and are dropped
// otherwise. Falling through to the default route instead would hand the
// packet back to the parent whose stale entry pointed here — the two-node
// ping-pong RFC 6550 no-path advertisements exist to prevent. A fresh DAO
// upserts over the sentinel.
func (in *Instance) purgeDownward(target ip6.Addr) {
	delete(in.downward, target)
	_ = in.stack.AddRoute(ip6.Route{Dst: target, PrefixLen: 128})
}

// linkCost converts the neighbor's ETX into rank units, quantized to
// quarter-hops so metric jitter cannot flap the parent choice: cost =
// round(ETX×4)×64, clamped to [MinHopRankIncrease, maxHopRankIncrease].
func (in *Instance) linkCost(mac uint64) uint16 {
	etx := 1.0
	if in.etx != nil {
		etx = in.etx.ETX(mac)
	}
	if etx < 1 {
		etx = 1
	}
	if etx > maxETX {
		etx = maxETX
	}
	cost := uint16(int(float64(etx*4)+0.5) * 64)
	if cost < MinHopRankIncrease {
		cost = MinHopRankIncrease
	}
	if cost > maxHopRankIncrease {
		cost = maxHopRankIncrease
	}
	return cost
}

// reselectParent re-evaluates the parent set: pick the candidate with the
// lowest rank-through (parent rank + link cost, ties to the lowest MAC),
// demand a Hysteresis improvement before abandoning a live preferred
// parent, and detach when the best choice would push rank beyond the
// repair bound.
func (in *Instance) reselectParent(cause trace.RankCause) {
	if in.cfg.Root || !in.running {
		return
	}
	macs := make([]uint64, 0, len(in.parents))
	for mac := range in.parents {
		macs = append(macs, mac)
	}
	sort.Slice(macs, func(i, j int) bool { return macs[i] < macs[j] })

	bestMAC, bestVia := uint64(0), uint32(RankInfinite)
	for _, mac := range macs {
		p := in.parents[mac]
		if p.rank >= RankInfinite {
			continue
		}
		via := uint32(p.rank) + uint32(in.linkCost(mac))
		if via >= RankInfinite {
			continue
		}
		if via < bestVia {
			bestVia, bestMAC = via, mac
		}
	}
	if bestMAC == 0 {
		if in.Joined() {
			in.detach(cause)
		}
		return
	}
	if in.preferred != 0 && bestMAC != in.preferred {
		if p, ok := in.parents[in.preferred]; ok && p.rank < RankInfinite {
			curVia := uint32(p.rank) + uint32(in.linkCost(in.preferred))
			if bestVia+hysteresis >= curVia {
				// Not enough better: stay (anti-flap).
				bestMAC, bestVia = in.preferred, curVia
			}
		}
	}
	if in.lowestRank != RankInfinite && bestVia > uint32(in.lowestRank)+maxRankIncrease {
		// Advancing would exceed the repair bound — likely our own
		// sub-DODAG echoing back. Detach and rejoin from scratch.
		in.detach(trace.RankBound)
		return
	}

	wasRank := in.rank
	if bestMAC != in.preferred {
		switched := in.preferred != 0 || wasRank != RankInfinite
		in.preferred = bestMAC
		_ = in.stack.AddRoute(ip6.Route{Dst: ip6.Unspecified, PrefixLen: 0, NextHop: ip6.LinkLocal(bestMAC)})
		if switched {
			in.stats.ParentSwitches++
		} else {
			in.stats.Joins++
		}
		in.sendDAO()
		in.readvertiseDownward()
	}
	newRank := uint16(bestVia)
	if newRank != wasRank {
		in.rank = newRank
		if newRank < in.lowestRank {
			in.lowestRank = newRank
		}
		in.emitRank(cause)
		if wasRank == RankInfinite {
			in.trick.start()
		} else {
			// Our advertised state changed: inconsistency.
			in.trickleReset()
		}
	}
}

// detach leaves the DODAG: poison the sub-DODAG first (children must not
// route through us), then solicit fresh DIOs to rejoin. LocalRepairs
// counts these transitions.
func (in *Instance) detach(cause trace.RankCause) {
	in.stats.LocalRepairs++
	in.rank = RankInfinite
	in.preferred = 0
	in.trick.stop()
	in.stack.RemoveRoute(ip6.Unspecified, 0)
	in.emitRank(cause)
	for _, mac := range in.sortedNeighbors() {
		in.sendCtrl(mac, Message{Type: TypeDIO, Version: in.version, Rank: RankInfinite, Root: in.root})
	}
	in.parents = make(map[uint64]*parentInfo)
	for _, mac := range in.sortedNeighbors() {
		in.sendCtrl(mac, Message{Type: TypeDIS})
	}
}

// sweep is the 1s housekeeping pass: expire parents past the missed-DIO
// deadline, and keep soliciting while detached.
func (in *Instance) sweep() {
	if in.cfg.Root {
		return
	}
	deadline := in.s.Now() - sim.Time(parentTimeout)
	macs := make([]uint64, 0, len(in.parents))
	for mac := range in.parents {
		macs = append(macs, mac)
	}
	sort.Slice(macs, func(i, j int) bool { return macs[i] < macs[j] })
	lostPreferred := false
	for _, mac := range macs {
		if in.parents[mac].lastHeard < deadline {
			delete(in.parents, mac)
			if in.preferred == mac {
				in.preferred = 0
				lostPreferred = true
			}
		}
	}
	if lostPreferred {
		in.reselectParent(trace.RankParentTimeout)
	}
	if !in.Joined() {
		for _, mac := range in.sortedNeighbors() {
			in.sendCtrl(mac, Message{Type: TypeDIS})
		}
	}
}

// trickleFire is the trickle timer's call to its owner: beacon our DIO to
// every neighbor, or count the suppression.
func (in *Instance) trickleFire(send bool) {
	if !in.running || !in.Joined() {
		return
	}
	if !send {
		in.stats.TrickleSuppress++
		return
	}
	for _, mac := range in.sortedNeighbors() {
		in.sendDIO(mac)
	}
}

func (in *Instance) trickleReset() {
	if in.trick.end.Scheduled() && in.trick.i != in.trick.imin {
		in.stats.TrickleResets++
	}
	in.trick.reset()
}

// sendDIO unicasts our announcement to one neighbor. BLE links are point
// to point: "multicast" is a sorted fan-out of unicasts.
func (in *Instance) sendDIO(mac uint64) {
	in.sendCtrl(mac, Message{Type: TypeDIO, Version: in.version, Rank: in.rank, Root: in.root})
}

// sendDAO advertises our own address upward with a fresh sequence number.
func (in *Instance) sendDAO() {
	if in.preferred == 0 {
		return
	}
	in.daoSeq++
	in.sendCtrl(in.preferred, Message{Type: TypeDAO, Seq: in.daoSeq, Target: in.stack.GlobalAddr()})
}

// readvertiseDownward re-sends every stored target up the new parent after
// a join or switch, re-plumbing the whole sub-DODAG's reachability without
// waiting for each origin's periodic refresh.
func (in *Instance) readvertiseDownward() {
	if in.preferred == 0 || len(in.downward) == 0 {
		return
	}
	targets := make([]ip6.Addr, 0, len(in.downward))
	for t := range in.downward {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return bytes.Compare(targets[i][:], targets[j][:]) < 0 })
	for _, t := range targets {
		in.sendCtrl(in.preferred, Message{Type: TypeDAO, Seq: in.downward[t].seq, Target: t})
	}
}

// dropDownwardVia forgets stored targets learned through a dead child — so
// their re-advertisements over the repaired path pass the freshness check —
// and originates a no-path DAO per target so ancestors purge their now-stale
// entries instead of steering traffic into the broken branch.
func (in *Instance) dropDownwardVia(mac uint64) {
	targets := make([]ip6.Addr, 0, len(in.downward))
	for t, e := range in.downward {
		if e.viaMAC == mac {
			targets = append(targets, t)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return bytes.Compare(targets[i][:], targets[j][:]) < 0 })
	for _, t := range targets {
		seq := in.downward[t].seq
		in.purgeDownward(t)
		if !in.cfg.Root && in.preferred != 0 && in.preferred != mac {
			in.sendCtrl(in.preferred, Message{Type: TypeDAO, Flags: FlagNoPath, Seq: seq, Target: t})
		}
	}
}

// sendCtrl encodes and transmits one control message over ip6 UDP to the
// neighbor's link-local address. Send failures (queue full, link racing
// down) are dropped silently — every message class is refreshed
// periodically.
func (in *Instance) sendCtrl(mac uint64, m Message) {
	switch m.Type {
	case TypeDIO:
		in.stats.DIOSent++
	case TypeDAO:
		in.stats.DAOSent++
	case TypeDIS:
		in.stats.DISSent++
	}
	pid, err := in.stack.SendUDPPID(ip6.LinkLocal(mac), port, port, m.Encode())
	if err == nil && in.tr.Keeps(pid) {
		in.tr.Add(in.node, pid, 0, trace.RPLTx(m.Type, mac, m.Rank))
	}
}

func (in *Instance) sortedNeighbors() []uint64 {
	macs := make([]uint64, 0, len(in.neighbors))
	for mac := range in.neighbors {
		macs = append(macs, mac)
	}
	sort.Slice(macs, func(i, j int) bool { return macs[i] < macs[j] })
	return macs
}

// emitRank records a rank transition for the monotone-rank loop check.
func (in *Instance) emitRank(cause trace.RankCause) {
	if in.tr.Enabled() {
		in.tr.Add(in.node, 0, 0, trace.RPLRank(in.rank, in.preferred, cause))
	}
}
