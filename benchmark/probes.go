package main

import (
	"fmt"
	"math"
	"time"

	"blemesh"
	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/metrics"
	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/rpl"
	"blemesh/internal/sim"
	"blemesh/internal/sixlo"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// probes are host nanoseconds per call of each layer's exported functions,
// timed from outside on the shapes the workload uses (site size, route
// table size, the 100-byte packet, the per-sink request rate). Multiplied
// by the layer's operation count they give the layer's estimated share of
// run_wall_s; what they leave unexplained is reported, not hidden.
type probes struct {
	dispatchNs, cancelNs float64 // sim
	transmitNs           float64 // phy
	// connEventNs is the two-node idle connection event with the sim events
	// and phy transmissions it contains priced out.
	connEventNs    float64
	sduNs          float64 // l2cap
	compressNs     float64 // sixlo
	decompressNs   float64
	routeLookupNs  float64 // ip6
	ip6CodecNs     float64
	pktbufNs       float64
	coapCodecNs    float64
	sinkExchangeNs float64
	rplCodecNs     float64
	cdfAddNs       float64
	emitNs         float64
	problems       []string
}

const (
	probeMAC1 = 0x5A0000000001
	probeMAC2 = 0x5A0000000002
	// paperPayload is the paper's 39-byte CoAP payload; with CoAP, UDP and
	// IPv6 headers it makes the 100-byte packet of §4.3.
	paperPayload = 39
	// idleSpan is how long the two-node idle link runs: 192 000 connection
	// events at 75 ms, a fifth of a host second.
	idleSpan = 2 * sim.Hour
)

// perOp times n calls of fn and returns nanoseconds per call.
func perOp(n int, fn func()) float64 {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func paperRequest() *coap.Message {
	m := &coap.Message{Type: coap.NON, Code: coap.CodeGET, MessageID: 0x1234,
		Token: []byte{0, 1}, Payload: make([]byte, paperPayload)}
	m.SetPath("s")
	return m
}

// paperPacket builds the workload's IPv6/UDP/CoAP packet in a pooled buffer
// the way the stack does: payload first, headers into the headroom.
func paperPacket(src, dst ip6.Addr) (*pktbuf.Buf, error) {
	body, err := paperRequest().Encode()
	if err != nil {
		return nil, err
	}
	b := pktbuf.Get(pktbuf.DefaultHeadroom, len(body))
	copy(b.Bytes(), body)
	b.Prepend(ip6.UDPHeaderLen)
	ip6.PutUDP(src, dst, coap.DefaultPort, coap.DefaultPort, b.Bytes())
	h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	pl := b.Len()
	h.Put(b.Prepend(ip6.HeaderLen), pl)
	return b, nil
}

func runProbes(r *result, rec *recorder) {
	p := &r.probes
	probe := func(name string, fn func() error) {
		rec.timed("probe."+name, -1, func() {
			if err := fn(); err != nil {
				p.problems = append(p.problems, fmt.Sprintf("probe %s: %v", name, err))
			}
		})
	}
	src, dst := ip6.ULA(ip6.DefaultPrefix, probeMAC1), ip6.ULA(ip6.DefaultPrefix, probeMAC2)
	// n scales a probe's full iteration count down for the smoke test.
	n := func(full int) int { return max(full/max(r.sz.probeDiv, 1), 1) }

	// sim: the timer storm at four timers per node of the largest site
	// (a node keeps about that many armed), and the arm-then-cancel pattern
	// of acknowledged retransmission timers.
	probe("sim.dispatch", func() error {
		events := n(400_000)
		timers := 4 * r.siteNodes
		if timers < 16 {
			timers = 16
		}
		p.dispatchNs = perOp(1, func() { sim.TimerStorm(sim.New(1), timers, events) }) / float64(events)
		return nil
	})
	probe("sim.cancel", func() error {
		events := n(200_000)
		p.cancelNs = perOp(1, func() { sim.CancelStorm(sim.New(1), events) }) / float64(events)
		return nil
	})

	probe("phy.transmit", func() error {
		p.transmitNs = probeTransmit(r.siteNodes, r.sitePos, r.siteRange, n(200_000))
		return nil
	})

	// ble and l2cap share a two-node world with one idle connection.
	var idle struct{ wallNs, perSimSecond, connEvents, simEvents, transmissions float64 }
	probe("ble.conn_event", func() error {
		w, a, b, err := twoNodes(r.w)
		if err != nil {
			return err
		}
		ev0 := a.Ctrl.Events().ConnEventsSub + b.Ctrl.Events().ConnEvents
		e0, tx0 := w.Sim.Processed(), w.Medium.Stats().Transmissions
		start := time.Now()
		span := idleSpan / sim.Duration(max(r.sz.probeDiv, 1))
		w.Run(span)
		idle.wallNs = float64(time.Since(start).Nanoseconds())
		idle.perSimSecond = idle.wallNs / span.Seconds()
		idle.connEvents = float64(a.Ctrl.Events().ConnEventsSub + b.Ctrl.Events().ConnEvents - ev0)
		idle.simEvents = float64(w.Sim.Processed() - e0)
		idle.transmissions = float64(w.Medium.Stats().Transmissions - tx0)
		if idle.connEvents == 0 {
			return fmt.Errorf("idle link serviced no connection events")
		}
		// The children are priced on this world's own shape: two radios.
		net := idle.wallNs - idle.simEvents*p.dispatchNs - idle.transmissions*probeTransmit(2, nil, 0, n(200_000))
		if net < 0 {
			net = 0
		}
		p.connEventNs = net / idle.connEvents
		return nil
	})
	probe("l2cap.sdu", func() error {
		w, a, b, err := twoNodes(r.w)
		if err != nil {
			return err
		}
		ch := b.NetIf.Channel(uint64(a.DevAddr()))
		sdus := n(2000)
		var total time.Duration
		for i := 0; i < sdus; i++ {
			buf, err := paperPacket(b.Addr(), a.Addr())
			if err != nil {
				return err
			}
			if err := sixlo.CompressBuf(buf, uint64(b.DevAddr()), uint64(a.DevAddr()), sixlo.DefaultContexts); err != nil {
				return err
			}
			start := time.Now()
			err = ch.SendSDUBuf(buf, 0, nil)
			total += time.Since(start)
			if err != nil {
				return err
			}
			w.Run(150 * sim.Millisecond) // two connection events drain the frame
		}
		p.sduNs = float64(total.Nanoseconds()) / float64(sdus)
		return nil
	})

	// sixlo and ip6 codecs on the 100-byte packet, in batches so the clock
	// is read once per 256 calls.
	probe("sixlo.codec", func() error {
		const batch = 256
		rounds := n(200)
		bufs := make([]*pktbuf.Buf, batch)
		var comp, decomp time.Duration
		for round := 0; round < rounds; round++ {
			for i := range bufs {
				b, err := paperPacket(src, dst)
				if err != nil {
					return err
				}
				bufs[i] = b
			}
			start := time.Now()
			for _, b := range bufs {
				if err := sixlo.CompressBuf(b, probeMAC1, probeMAC2, sixlo.DefaultContexts); err != nil {
					return err
				}
			}
			mid := time.Now()
			for _, b := range bufs {
				if err := sixlo.DecompressBuf(b, probeMAC1, probeMAC2, sixlo.DefaultContexts); err != nil {
					return err
				}
			}
			comp += mid.Sub(start)
			decomp += time.Since(mid)
			for _, b := range bufs {
				b.Put()
			}
		}
		p.compressNs = float64(comp.Nanoseconds()) / float64(batch*rounds)
		p.decompressNs = float64(decomp.Nanoseconds()) / float64(batch*rounds)
		return nil
	})
	probe("ip6.codec", func() error {
		pkt := make([]byte, 100)
		h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
		var derr error
		p.ip6CodecNs = perOp(n(200_000), func() {
			ip6.PutUDP(src, dst, coap.DefaultPort, coap.DefaultPort, pkt[ip6.HeaderLen:])
			h.Put(pkt, len(pkt)-ip6.HeaderLen)
			hd, dgram, err := ip6.Decode(pkt)
			if err == nil {
				_, _, err = ip6.DecodeUDP(hd.Src, hd.Dst, dgram)
			}
			if err != nil {
				derr = err
			}
		})
		return derr
	})
	probe("ip6.route_lookup", func() error {
		st := ip6.NewStack(sim.New(1), probeMAC1)
		routes := max(r.routes, 1)
		dsts := make([]ip6.Addr, routes)
		for i := range dsts {
			dsts[i] = ip6.ULA(ip6.DefaultPrefix, 0x5A0000000100+uint64(i))
			if err := st.AddRoute(ip6.Route{Dst: dsts[i], PrefixLen: 128, NextHop: dst}); err != nil {
				return err
			}
		}
		i, missed := 0, 0
		p.routeLookupNs = perOp(n(200_000), func() {
			if _, ok := st.LookupRoute(dsts[i%routes]); !ok {
				missed++
			}
			i += 7
		})
		if missed > 0 {
			return fmt.Errorf("%d lookups missed an installed route", missed)
		}
		return nil
	})
	probe("pktbuf.get_put", func() error {
		p.pktbufNs = perOp(n(500_000), func() { pktbuf.Get(pktbuf.DefaultHeadroom, 100).Put() })
		return nil
	})

	probe("coap.codec", func() error {
		m := paperRequest()
		var derr error
		p.coapCodecNs = perOp(n(100_000), func() {
			b, err := m.Encode()
			if err == nil {
				_, err = coap.Decode(b)
			}
			if err != nil {
				derr = err
			}
		})
		return derr
	})
	probe("coap.sink_exchange", func() error {
		ns, err := probeSinkExchange(r.w, idle.perSimSecond, 3*sim.Minute/sim.Duration(max(r.sz.probeDiv, 1)))
		p.sinkExchangeNs = ns
		return err
	})
	probe("rpl.codec", func() error {
		msgs := []rpl.Message{
			{Type: rpl.TypeDIO, Version: 1, Rank: 512, Root: dst},
			{Type: rpl.TypeDAO, Seq: 7, Target: src},
		}
		var derr error
		i := 0
		p.rplCodecNs = perOp(n(200_000), func() {
			if _, err := rpl.DecodeMessage(msgs[i%2].Encode()); err != nil {
				derr = err
			}
			i++
		})
		return derr
	})
	probe("metrics.cdf_add", func() error {
		var c metrics.CDF
		v := 0.1
		p.cdfAddNs = perOp(n(500_000), func() {
			c.Add(v)
			v = v*1.0001 + 1e-6
			if v > 10 {
				v = 0.1
			}
		})
		return nil
	})
	probe("trace.emit", func() error {
		l := trace.New(sim.New(1), 0)
		l.Enable()
		id := uint64(1)
		p.emitNs = perOp(n(200_000), func() {
			l.EmitPkt("probe", trace.KindCoAPRequest, id, 0, "dst=%v mid=%d try=1", dst, id)
			id++
		})
		return nil
	})
}

// probeTransmit measures Radio.Transmit on a medium of n radios — at pos
// and within rng of each other when the topology is geometric. As in a
// connection event, one radio listens on the sender's channel (the one
// nearest the sender) and the rest are tuned elsewhere; the cost covers the
// collision scan, the carrier scan and the end-of-packet delivery event.
func probeTransmit(n int, pos []testbed.Point, rng float64, iters int) float64 {
	s := sim.New(1)
	m := phy.NewMedium(s)
	if n < 2 {
		n = 2
	}
	m.ReserveRadios(n)
	radios := make([]*phy.Radio, n)
	for i := range radios {
		radios[i] = m.NewRadio()
	}
	peer := 1
	if len(pos) == n {
		best := math.Inf(1)
		for i, pt := range pos {
			radios[i].SetPosition(pt.X, pt.Y, pt.Z)
			dx, dy, dz := pt.X-pos[0].X, pt.Y-pos[0].Y, pt.Z-pos[0].Z
			if d := dx*dx + dy*dy + dz*dz; i > 0 && d < best {
				best, peer = d, i
			}
		}
		m.SetRange(rng)
	}
	const ch = phy.Channel(5)
	for i, rd := range radios[1:] {
		rd.SetReceiver(func(phy.Packet, phy.Channel, bool) {})
		if i+1 == peer {
			rd.StartListen(ch)
		} else {
			rd.StartListen(ch + 1 + phy.Channel(i%30))
		}
	}
	pkt := phy.Packet{Bits: 80}
	return perOp(iters, func() {
		radios[0].Transmit(ch, pkt, 80*sim.Microsecond, nil)
		s.Run(s.Now() + 150*sim.Microsecond)
	})
}

// twoNodes builds a two-node world with the workload's connection interval
// policy and waits for the IPSP channel: a advertises and serves, b
// coordinates.
func twoNodes(w *workload) (*blemesh.World, *blemesh.Node, *blemesh.Node, error) {
	cfg := w.config(1, w.topology(1, 2), nil)
	world := blemesh.New(1)
	sc := blemesh.StatconnConfig{Policy: cfg.Policy}
	a := world.NewNode(blemesh.NodeConfig{Name: "a", MAC: probeMAC1, ClockPPM: 2, Statconn: sc})
	b := world.NewNode(blemesh.NodeConfig{Name: "b", MAC: probeMAC2, ClockPPM: -1, Statconn: sc})
	a.AcceptInbound(1)
	b.ConnectTo(a)
	a.Coap.Handler = func(ip6.Addr, *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	for i := 0; i < 600; i++ {
		if ch := b.NetIf.Channel(uint64(a.DevAddr())); ch != nil && ch.Open() {
			world.Run(2 * sim.Second) // settle credits
			return world, a, b, nil
		}
		world.Run(100 * sim.Millisecond)
	}
	return nil, nil, nil, fmt.Errorf("two-node link did not come up in 60 simulated seconds")
}

// probeSinkExchange drives one-hop request/response exchanges at the
// workload's per-sink rate for span (three simulated minutes) and returns the host
// nanoseconds one exchange adds over an idle link (idleNsPerSimSecond).
func probeSinkExchange(w *workload, idleNsPerSimSecond float64, span sim.Duration) (float64, error) {
	world, a, b, err := twoNodes(w)
	if err != nil {
		return 0, err
	}
	gap := sim.Duration(float64(sim.Second) / w.sinkRate)
	answered := 0
	var send func()
	send = func() {
		// A refused send is a lost exchange, as in the harness.
		_ = b.Coap.Request(a.Addr(), paperRequest(), func(m *coap.Message, _ sim.Duration, _ error) {
			if m != nil {
				answered++
			}
		})
		world.Sim.Post(gap, send)
	}
	world.Sim.Post(gap, send)
	start := time.Now()
	world.Run(span)
	wall := float64(time.Since(start).Nanoseconds())
	if answered == 0 {
		return 0, fmt.Errorf("no exchange completed at %g requests/s", w.sinkRate)
	}
	net := wall - idleNsPerSimSecond*span.Seconds()
	if net < 0 {
		net = 0
	}
	return net / float64(answered), nil
}
