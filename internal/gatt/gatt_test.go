package gatt

import (
	"testing"
	"unsafe"

	"blemesh/internal/ble"
	"blemesh/internal/l2cap"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
)

func TestServerDatabase(t *testing.T) {
	s := NewServer(UUIDIPSS)
	if len(s.Services()) != 3 {
		t.Fatalf("services: %d", len(s.Services()))
	}
	if !s.Has(UUIDIPSS) || !s.Has(UUIDGenericAccess) || s.Has(0x1234) {
		t.Fatal("Has() wrong")
	}
	// Handles must be disjoint and ascending.
	prev := uint16(0)
	for _, sv := range s.Services() {
		if sv.StartHandle <= prev || sv.EndHandle < sv.StartHandle {
			t.Fatalf("handle layout broken: %+v", sv)
		}
		prev = sv.EndHandle
	}
}

func TestReadByGroupTypeCodec(t *testing.T) {
	s := NewServer(UUIDIPSS)
	req := []byte{opReadByGroupTypeReq, 1, 0, 0xFF, 0xFF, 0x00, 0x28}
	rsp := s.readByGroupType(req)
	if rsp == nil || rsp[0] != opReadByGroupTypeRsp || rsp[1] != 6 {
		t.Fatalf("rsp: %x", rsp)
	}
	if (len(rsp)-2)/6 != 3 {
		t.Fatalf("%d services in response", (len(rsp)-2)/6)
	}
	// Out-of-range request → Attribute Not Found.
	req2 := []byte{opReadByGroupTypeReq, 0xF0, 0xFF, 0xFF, 0xFF, 0x00, 0x28}
	rsp2 := s.readByGroupType(req2)
	if rsp2 == nil || rsp2[0] != opErrorRsp || rsp2[4] != attErrAttributeNotFound {
		t.Fatalf("error rsp: %x", rsp2)
	}
	// Wrong group type → error.
	req3 := []byte{opReadByGroupTypeReq, 1, 0, 0xFF, 0xFF, 0x03, 0x28}
	if rsp3 := s.readByGroupType(req3); rsp3 == nil || rsp3[0] != opErrorRsp {
		t.Fatalf("wrong-type rsp: %x", rsp3)
	}
	// Malformed request is ignored.
	if s.readByGroupType([]byte{opReadByGroupTypeReq, 1}) != nil {
		t.Fatal("malformed request answered")
	}
}

// attPair builds two connected BLE nodes with L2CAP endpoints and ATT.
func attPair(t *testing.T, seed int64, serverUUIDs ...uint16) (*sim.Sim, *ATT, *ATT) {
	t.Helper()
	s := sim.New(seed)
	m := phy.NewMedium(s)
	mk := func(ppm float64, addr int) *ble.Controller {
		clk := sim.NewClock(s, ppm)
		return ble.NewController(s, clk, m.NewRadio(), ble.ControllerConfig{Addr: ble.DevAddr(addr)})
	}
	a := mk(1, 0xA)
	b := mk(-1, 0xB)
	var attA, attB *ATT
	a.OnConn = &connFuncs{Up: func(c *ble.Conn) {
		attA = NewATT(l2cap.NewEndpoint(s, c), NewServer(serverUUIDs...))
	}}
	b.OnConn = &connFuncs{Up: func(c *ble.Conn) {
		attB = NewATT(l2cap.NewEndpoint(s, c), NewServer(UUIDIPSS))
	}}
	a.StartAdvertising(ble.AdvParams{Interval: 90 * sim.Millisecond})
	p := ble.ConnParams{Interval: 50 * sim.Millisecond}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(a.Addr(), p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && (attA == nil || attB == nil); i++ {
		s.Run(s.Now() + 50*sim.Millisecond)
	}
	if attA == nil || attB == nil {
		t.Fatal("connection did not come up")
	}
	return s, attA, attB
}

func TestDiscoveryOverTheAir(t *testing.T) {
	s, _, attB := attPair(t, 1, UUIDIPSS)
	var got []Service
	var derr error
	done := false
	if err := attB.DiscoverPrimaryServices(s, ClientFunc(func(svcs []Service, err error) {
		got, derr, done = svcs, err, true
	})); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 5*sim.Second)
	if !done || derr != nil {
		t.Fatalf("discovery done=%v err=%v", done, derr)
	}
	if attB.disc != nil {
		t.Fatal("the client state outlives the discovery")
	}
	if len(got) != 3 {
		t.Fatalf("discovered %d services", len(got))
	}
	found := false
	for _, sv := range got {
		if sv.UUID == UUIDIPSS {
			found = true
		}
	}
	if !found {
		t.Fatal("IPSS not discovered")
	}
}

// TestATTServesWithoutClientState: a link end that only serves holds its
// endpoint and the shared database, nothing else; the client state is
// allocated when a discovery starts.
func TestATTServesWithoutClientState(t *testing.T) {
	if sz := unsafe.Sizeof(ATT{}); sz > 24 {
		t.Fatalf("unsafe.Sizeof(ATT{}) = %d, want <= 24 (three pointers)", sz)
	}
	s, attA, attB := attPair(t, 6, UUIDIPSS)
	attB.DiscoverPrimaryServices(s, ClientFunc(func([]Service, error) {}))
	if attB.disc == nil {
		t.Fatal("no client state while a discovery is outstanding")
	}
	s.Run(s.Now() + 5*sim.Second)
	if attA.disc != nil || attB.disc != nil {
		t.Fatalf("client state held after discovery: server side %v, client side %v", attA.disc != nil, attB.disc != nil)
	}
}

func TestSupportsIPSSPositive(t *testing.T) {
	s, _, attB := attPair(t, 2, UUIDIPSS)
	var ok bool
	done := false
	attB.DiscoverPrimaryServices(s, ipssCheck(func(v bool, err error) { ok, done = v, true }))
	s.Run(s.Now() + 5*sim.Second)
	if !done || !ok {
		t.Fatalf("IPSS check done=%v ok=%v", done, ok)
	}
}

func TestSupportsIPSSNegative(t *testing.T) {
	// Peer A exposes no IPSS (a plain beacon-style device).
	s, _, attB := attPair(t, 3)
	var ok bool
	done := false
	attB.DiscoverPrimaryServices(s, ipssCheck(func(v bool, err error) { ok, done = v, true }))
	s.Run(s.Now() + 5*sim.Second)
	if !done {
		t.Fatal("check never completed")
	}
	if ok {
		t.Fatal("IPSS reported for a peer without it")
	}
}

func TestConcurrentDiscoveryRejected(t *testing.T) {
	s, _, attB := attPair(t, 4, UUIDIPSS)
	attB.DiscoverPrimaryServices(s, ClientFunc(func([]Service, error) {}))
	if err := attB.DiscoverPrimaryServices(s, ClientFunc(func([]Service, error) {})); err == nil {
		t.Fatal("second concurrent discovery accepted")
	}
	s.Run(s.Now() + sim.Second)
}

func TestBidirectionalDiscovery(t *testing.T) {
	// Both sides discover each other over the same fixed channel: the
	// mux must route requests to the server and responses to the client.
	s, attA, attB := attPair(t, 5, UUIDIPSS)
	doneA, doneB := false, false
	attA.DiscoverPrimaryServices(s, ipssCheck(func(v bool, err error) { doneA = v }))
	attB.DiscoverPrimaryServices(s, ipssCheck(func(v bool, err error) { doneB = v }))
	s.Run(s.Now() + 5*sim.Second)
	if !doneA || !doneB {
		t.Fatalf("bidirectional discovery failed: A=%v B=%v", doneA, doneB)
	}
}

// ClientFunc adapts a function to Client.
type ClientFunc func(svcs []Service, err error)

// Discovered calls f.
func (f ClientFunc) Discovered(svcs []Service, err error) { f(svcs, err) }

// ipssCheck is a Client that hands done the IPSS check of the discovery's
// outcome.
func ipssCheck(done func(ok bool, err error)) ClientFunc {
	return func(svcs []Service, err error) { done(err == nil && SupportsIPSS(svcs), err) }
}

// connFuncs adapts two functions to ble.ConnHandler; a nil one ignores its
// upcall, and it rejects every parameter request.
type connFuncs struct {
	Up   func(c *ble.Conn)
	Down func(c *ble.Conn, reason ble.LossReason)
}

func (f *connFuncs) ConnUp(c *ble.Conn) {
	if f.Up != nil {
		f.Up(c)
	}
}

func (f *connFuncs) ConnDown(c *ble.Conn, reason ble.LossReason) {
	if f.Down != nil {
		f.Down(c, reason)
	}
}

func (f *connFuncs) ParamRequest(*ble.Conn, sim.Duration) bool { return false }
