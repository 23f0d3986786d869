package core

import (
	"slices"

	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/dot15d4"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/rpl"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/trace"
)

// NodeConfig assembles one complete IPv6-over-BLE node.
type NodeConfig struct {
	// Name labels the node in reports ("nrf52dk-1").
	Name string
	// MAC is the 48-bit device address; it seeds the BLE DevAddr and the
	// IPv6 IIDs.
	MAC uint64
	// ClockPPM is the node's actual sleep-clock frequency error.
	ClockPPM float64
	// SCA is the declared sleep-clock accuracy (must bound ClockPPM; 0:
	// the controller's 50 ppm).
	SCA float64
	// Statconn configures the connection manager (intervals, policy).
	Statconn statconn.Config
	// Arbitration selects the radio scheduler policy.
	Arbitration ble.Arbitration
	// DisableWindowWidening is an ablation switch.
	DisableWindowWidening bool
	// Trace, when non-nil and enabled, receives the node's link events
	// (the paper's §4.2 STDIO event stream).
	Trace *trace.Log
	// Routing, when non-nil, runs an RPL-lite instance (internal/rpl) on
	// the node instead of relying on provisioned static routes. Nil keeps
	// the node fully static — no extra timers, no extra RNG draws, so
	// static runs stay byte-identical with pre-routing builds.
	Routing *rpl.Config
}

// Node is one fully assembled node: radio, drifting clock, BLE controller,
// statconn manager, L2CAP/6LoWPAN adapter, IPv6 stack, and CoAP endpoint —
// the same stack Figure 5 of the paper shows for RIOT+NimBLE.
type Node struct {
	Name     string
	Sim      *sim.Sim
	Clock    *sim.Clock
	Radio    *phy.Radio
	Ctrl     *ble.Controller
	Statconn *statconn.Manager
	NetIf    *NetIf
	Stack    *ip6.Stack
	Coap     *coap.Endpoint
	// RPL is the node's dynamic-routing instance; nil on static nodes.
	RPL *rpl.Instance
	// MAC and Adapter are an 802.15.4 node's (NewDot15d4Node), whose Clock,
	// Ctrl, Statconn and NetIf are nil; both are nil on a BLE node.
	MAC     *dot15d4.MAC
	Adapter *dot15d4.NetIf

	running bool
	prov    provisioned
}

// provisioned is the node's non-volatile configuration — the topology and
// routes its firmware image carries — replayed verbatim on Restart.
type provisioned struct {
	outbound []ble.DevAddr
	inbound  int
	routes   []ip6.Route
}

// NewNode builds a node on the given medium. The construction order fixes
// the order of RNG draws, so it is part of the simulator's output.
func NewNode(s *sim.Sim, medium *phy.Medium, cfg NodeConfig) *Node {
	ctrlCfg := ble.ControllerConfig{
		Addr:                  ble.DevAddr(cfg.MAC),
		SCA:                   cfg.SCA,
		Arbitration:           cfg.Arbitration,
		DisableWindowWidening: cfg.DisableWindowWidening,
	}
	clk := sim.NewClock(s, cfg.ClockPPM)
	radio := medium.NewRadio()
	ctrl := ble.NewController(s, clk, radio, ctrlCfg)
	stack := ip6.NewStack(s, cfg.MAC)
	netif := NewNetIf(s, stack)
	mgr := statconn.New(s, ctrl, cfg.Statconn)
	tr := cfg.Trace
	name := cfg.Name
	ctrl.SetTrace(tr, name)
	stack.SetTrace(tr, name)
	netif.SetTrace(tr, name)
	var router *rpl.Instance
	if cfg.Routing != nil {
		router = rpl.New(s, stack, *cfg.Routing)
		router.SetTrace(tr, name)
		// The routing metric reads statconn's per-peer retransmission
		// EWMA; the sampler keeps it fresh on the same cadence for every
		// dynamic node.
		router.SetETX((*peerETX)(mgr))
		mgr.EnableQualitySampling()
	}
	ep := coap.NewEndpoint(s, stack)
	ep.SetTrace(tr, name)
	if router != nil {
		router.Start()
	}
	n := &Node{
		Name:     cfg.Name,
		Sim:      s,
		Clock:    clk,
		Radio:    radio,
		Ctrl:     ctrl,
		Statconn: mgr,
		NetIf:    netif,
		Stack:    stack,
		Coap:     ep,
		RPL:      router,
		running:  true,
	}
	mgr.OnLink = (*nodeLinks)(n)
	return n
}

// NewDot15d4Node builds the m3 node of Fig. 10: a CSMA/CA MAC and its 6LoWPAN
// adapter under the IPv6 stack and CoAP endpoint a BLE node gets, traced the
// same way. The construction order fixes the RNG draws.
func NewDot15d4Node(s *sim.Sim, medium *phy.Medium, name string, mac uint64, tr *trace.Log) *Node {
	m := dot15d4.NewMAC(s, medium, mac)
	stack := ip6.NewStack(s, mac)
	adapter := dot15d4.NewNetIf(stack, m)
	stack.SetTrace(tr, name)
	ep := coap.NewEndpoint(s, stack)
	ep.SetTrace(tr, name)
	return &Node{Name: name, Sim: s, Radio: m.Radio(), MAC: m, Adapter: adapter,
		Stack: stack, Coap: ep, running: true}
}

// nodeLinks is the node as its statconn manager's LinkHandler: a link that
// comes up or goes down is traced under the node name, wired into or out of
// the adapter, and reported to the router.
type nodeLinks Node

func (h *nodeLinks) LinkUp(c *ble.Conn) {
	n := (*Node)(h)
	n.NetIf.tr.Add(n.NetIf.node, 0, 0, trace.ConnOpen(uint64(c.Peer()), c.Role(), c.Interval()))
	n.NetIf.AddLink(c)
	if n.RPL != nil {
		n.RPL.LinkUp(uint64(c.Peer()))
	}
}

func (h *nodeLinks) LinkDown(c *ble.Conn, reason ble.LossReason) {
	n := (*Node)(h)
	n.NetIf.tr.Add(n.NetIf.node, 0, 0, trace.ConnLoss(uint64(c.Peer()), reason))
	n.NetIf.RemoveLink(c)
	if n.RPL != nil {
		n.RPL.LinkDown(uint64(c.Peer()))
	}
}

// peerETX is a node's statconn manager as its router's rpl.LinkMetric.
type peerETX statconn.Manager

func (m *peerETX) ETX(mac uint64) float64 { return (*statconn.Manager)(m).PeerETX(ble.DevAddr(mac)) }

// Addr returns the node's mesh (fd00::) address.
func (n *Node) Addr() ip6.Addr { return n.Stack.GlobalAddr() }

// DevAddr returns the node's BLE device address.
func (n *Node) DevAddr() ble.DevAddr { return n.Ctrl.Addr() }

// ConnectTo declares a coordinator-role BLE connection toward peer, managed
// (and re-established on loss) by statconn. The declaration is part of the
// node's non-volatile configuration and survives Stop/Restart.
func (n *Node) ConnectTo(peer *Node) {
	addr := peer.DevAddr()
	for _, p := range n.prov.outbound {
		if p == addr {
			n.Statconn.Connect(addr)
			return
		}
	}
	n.prov.outbound = append(n.prov.outbound, addr)
	n.Statconn.Connect(addr)
}

// Dials reports whether the node is provisioned to coordinate a connection
// toward peer (ConnectTo).
func (n *Node) Dials(peer *Node) bool {
	return slices.Contains(n.prov.outbound, peer.DevAddr())
}

// AcceptInbound declares how many subordinate-role connections this node
// accepts; it advertises until that many are up and re-advertises on loss.
// The declaration survives Stop/Restart.
func (n *Node) AcceptInbound(k int) {
	n.prov.inbound = k
	n.Statconn.ExpectInbound(k)
}

// AddHostRoute installs a host route to dst via the neighbor nextHop. The
// route is part of the provisioned configuration and survives Stop/Restart.
func (n *Node) AddHostRoute(dst, nextHop *Node) {
	r := ip6.Route{Dst: dst.Addr(), PrefixLen: 128, NextHop: nextHop.Addr()}
	n.prov.routes = append(n.prov.routes, r)
	_ = n.Stack.AddRoute(r)
}

// ReserveProvRoutes aims the provisioned-route list at preallocated storage:
// a builder that knows the node's exact route count hands it one window of a
// shared backing array instead of letting append grow a fresh allocation per
// node. Must be called before any AddHostRoute; an under-counted reservation
// degrades gracefully to append growth.
func (n *Node) ReserveProvRoutes(buf []ip6.Route) {
	if len(n.prov.routes) > 0 {
		panic("core: ReserveProvRoutes after AddHostRoute")
	}
	n.prov.routes = buf[:0]
}

// Running reports whether the node is powered on.
func (n *Node) Running() bool { return n.running }

// Stop crashes the node: every layer drops its volatile state — BLE
// connections die silently (peers discover the loss via their supervision
// timeouts), advertising/scanning stop, L2CAP channels and their queued
// frames go, the neighbor base, routes, L2CAP reassembly buffers, and
// pending CoAP exchanges vanish. Cumulative statistics survive: they model
// the experiment's observer, not the device's RAM.
func (n *Node) Stop() {
	if n.MAC != nil {
		panic("core: Stop on IEEE 802.15.4 node " + n.Name + ": its MAC has no stop path")
	}
	if !n.running {
		return
	}
	n.running = false
	// Order matters: routing must go quiet before the links report down
	// (a crashing node does not poison anyone), the manager must stop
	// restoring topology before the controller kills the links, and
	// interface queues must release their pktbuf charges before the stack
	// zeroes the pool.
	if n.RPL != nil {
		n.RPL.Stop()
	}
	n.Statconn.Shutdown()
	n.Ctrl.Shutdown()
	n.NetIf.Reset()
	n.Coap.Reset()
	n.Stack.Reset()
}

// Restart boots a stopped node from its provisioned configuration: routes
// are reinstalled and statconn re-declares the node's static links, which
// then re-establish through the normal advertise/scan machinery.
func (n *Node) Restart() {
	if n.MAC != nil {
		panic("core: Restart on IEEE 802.15.4 node " + n.Name + ": its crash is not modelled")
	}
	if n.running {
		return
	}
	n.running = true
	n.Statconn.Restart()
	for _, r := range n.prov.routes {
		_ = n.Stack.AddRoute(r)
	}
	if n.prov.inbound > 0 {
		n.Statconn.ExpectInbound(n.prov.inbound)
	}
	for _, p := range n.prov.outbound {
		n.Statconn.Connect(p)
	}
	if n.RPL != nil {
		// Rejoin from scratch once links re-form; a rebooting root bumps
		// the DODAG version (global repair).
		n.RPL.Start()
	}
}
