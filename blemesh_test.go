package blemesh

import (
	"strings"
	"testing"
)

func TestWorldTwoNodeQuickstart(t *testing.T) {
	w := New(42)
	a := w.NewNode(NodeConfig{Name: "a", MAC: 0xA1})
	b := w.NewNode(NodeConfig{Name: "b", MAC: 0xB2})
	a.AcceptInbound(1)
	b.ConnectTo(a)
	w.Run(5 * Second)

	a.Coap.Handler = func(_ Addr, req *Message) *Message {
		return &Message{Type: CoapACK, Code: CoapContent, Payload: []byte("21.5C")}
	}
	var got string
	req := &Message{Type: CoapNON, Code: CoapGET}
	req.SetPath("temp")
	if err := b.Coap.Request(a.Addr(), req, func(m *Message, rtt Duration, _ error) {
		if m != nil {
			got = string(m.Payload)
		}
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(2 * Second)
	if got != "21.5C" {
		t.Fatalf("quickstart exchange failed: %q", got)
	}
}

func TestTopologiesExported(t *testing.T) {
	if Tree().Name != "tree" || Line().Name != "line" {
		t.Fatal("topology exports broken")
	}
	if len(Tree().Links) != 14 {
		t.Fatal("tree links")
	}
}

func TestExperimentRegistryExported(t *testing.T) {
	if len(Experiments()) < 16 {
		t.Fatalf("only %d experiments exported", len(Experiments()))
	}
	rep, err := RunExperiment("table1", Options{})
	if err != nil || len(rep.Lines) == 0 {
		t.Fatalf("table1: %v", err)
	}
	if _, err := RunExperiment("bogus", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatal("unknown experiment not rejected")
	}
}

func TestWorldInterference(t *testing.T) {
	w := New(1)
	w.JamChannel(22)
	w.AddNoise(0.01)
	a := w.NewNode(NodeConfig{Name: "a", MAC: 1})
	b := w.NewNode(NodeConfig{Name: "b", MAC: 2})
	a.AcceptInbound(1)
	b.ConnectTo(a)
	w.Run(10 * Second)
	if len(a.NetIf.Links()) != 1 {
		t.Fatal("link did not survive interference")
	}
}

func TestBuildNetworkFacade(t *testing.T) {
	nw := BuildNetwork(NetworkConfig{Seed: 5, Topology: Tree(),
		Policy: RandomIntervals{Min: 65 * Millisecond, Max: 85 * Millisecond}})
	if !nw.WaitTopology(60 * Second) {
		t.Fatal("topology")
	}
	nw.StartTraffic(TrafficConfig{})
	nw.Run(60 * Second)
	if nw.CoAPPDR().Rate() < 0.98 {
		t.Fatalf("PDR %.4f", nw.CoAPPDR().Rate())
	}
}

// TestAttachFaultsRefusesDot15d4: a fault plan against an 802.15.4 network
// is an error, not a panic at its first crash: the MAC has no stop path.
func TestAttachFaultsRefusesDot15d4(t *testing.T) {
	nw := BuildNetwork(NetworkConfig{Seed: 5, Topology: Tree(), LinkLayer: LinkDot15d4})
	plan := &FaultPlan{Events: []FaultEvent{{At: Second, Kind: FaultReboot, Node: 2}}}
	if inj, err := AttachFaults(nw, plan); err == nil || !strings.Contains(err.Error(), "802.15.4") {
		t.Fatalf("AttachFaults = %v, %v; want an error naming IEEE 802.15.4", inj, err)
	}
	nw.StartTraffic(TrafficConfig{})
	nw.Run(10 * Second)
	if nw.CoAPPDR().Sent == 0 {
		t.Fatal("the network sent nothing after the refused plan")
	}
}
