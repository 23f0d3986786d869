// Package gatt implements the slice of the Attribute Protocol and the
// Generic Attribute Profile that IPv6-over-BLE requires: a GATT server
// exposing primary services — in particular the Internet Protocol Support
// Service (IPSS) of the Internet Protocol Support Profile — and a client
// that discovers a peer's primary services over the fixed ATT channel.
//
// RFC 7668 nodes advertise the IPSS and peers check it before opening the
// IPSP L2CAP channel; the paper's Table 2 distinguishes implementations by
// exactly this capability (BLEach lacks a GATT server and therefore does
// not comply with the profile). The connection manager of this platform
// performs the same check.
package gatt

import (
	"encoding/binary"
	"fmt"

	"blemesh/internal/l2cap"
	"blemesh/internal/sim"
)

// Well-known 16-bit service UUIDs.
const (
	// UUIDIPSS is the Internet Protocol Support Service.
	UUIDIPSS uint16 = 0x1820
	// UUIDGenericAccess and UUIDGenericAttribute are mandatory services.
	UUIDGenericAccess    uint16 = 0x1800
	UUIDGenericAttribute uint16 = 0x1801
)

// ATT opcodes (subset: primary service discovery).
const (
	opErrorRsp           byte = 0x01
	opReadByGroupTypeReq byte = 0x10
	opReadByGroupTypeRsp byte = 0x11

	attErrAttributeNotFound byte = 0x0A
)

// uuidPrimaryService is the attribute type of a primary service definition.
const uuidPrimaryService uint16 = 0x2800

// Service is one primary service in the attribute database.
type Service struct {
	UUID        uint16
	StartHandle uint16
	EndHandle   uint16
}

// Server is a node's GATT attribute database of primary services.
type Server struct {
	services []Service
}

// NewServer creates a server with the mandatory GAP/GATT services and the
// given additional service UUIDs, handles assigned sequentially.
func NewServer(extra ...uint16) *Server {
	s := &Server{}
	for i, uuid := range append([]uint16{UUIDGenericAccess, UUIDGenericAttribute}, extra...) {
		h := uint16(1 + 8*i)
		s.services = append(s.services, Service{UUID: uuid, StartHandle: h, EndHandle: h + 7})
	}
	return s
}

// Services returns the database content.
func (s *Server) Services() []Service { return append([]Service(nil), s.services...) }

// Has reports whether the database contains a service UUID.
func (s *Server) Has(uuid uint16) bool { return has(s.services, uuid) }

func has(svcs []Service, uuid uint16) bool {
	for _, sv := range svcs {
		if sv.UUID == uuid {
			return true
		}
	}
	return false
}

// readByGroupType answers a discovery request against the database; the
// reply is either a Read By Group Type Response or an Error Response with
// Attribute Not Found, which terminates the client's iteration.
func (s *Server) readByGroupType(req []byte) []byte {
	if len(req) != 7 {
		return nil
	}
	start := binary.LittleEndian.Uint16(req[1:])
	end := binary.LittleEndian.Uint16(req[3:])
	typ := binary.LittleEndian.Uint16(req[5:])
	if typ != uuidPrimaryService {
		return errorRsp(req[0], start, attErrAttributeNotFound)
	}
	var body []byte
	for _, sv := range s.services {
		if sv.StartHandle < start || sv.StartHandle > end {
			continue
		}
		entry := make([]byte, 6)
		binary.LittleEndian.PutUint16(entry[0:], sv.StartHandle)
		binary.LittleEndian.PutUint16(entry[2:], sv.EndHandle)
		binary.LittleEndian.PutUint16(entry[4:], sv.UUID)
		body = append(body, entry...)
	}
	if len(body) == 0 {
		return errorRsp(req[0], start, attErrAttributeNotFound)
	}
	return append([]byte{opReadByGroupTypeRsp, 6}, body...)
}

func errorRsp(reqOp byte, handle uint16, code byte) []byte {
	out := make([]byte, 5)
	out[0] = opErrorRsp
	out[1] = reqOp
	binary.LittleEndian.PutUint16(out[2:], handle)
	out[4] = code
	return out
}

// ATT multiplexes one connection's fixed ATT channel between the local
// server (answering the peer's requests) and the local client (consuming
// the peer's responses). A link end serves for as long as it lives but
// discovers once, at set-up and on the coordinator only, so the client state
// exists only while a discovery is outstanding.
type ATT struct {
	ep     *l2cap.Endpoint
	server *Server
	disc   *discovery // nil unless a discovery is outstanding
}

// discovery is the client state of one primary service discovery: one
// outstanding request, per the ATT flow rule.
type discovery struct {
	s       *sim.Sim
	found   []Service
	next    uint16
	client  Client
	timeout sim.Timer
}

// Client takes the outcome of a primary service discovery: every primary
// service found, or the error that ended it. core's link implements it.
type Client interface {
	Discovered(svcs []Service, err error)
}

// attTimeout is the mux as its discovery's 30 s request timeout.
type attTimeout ATT

func (h *attTimeout) Fire() { (*ATT)(h).finish(nil, fmt.Errorf("gatt: discovery timed out")) }

// NewATT installs the fixed-channel mux on an endpoint.
func NewATT(ep *l2cap.Endpoint, server *Server) *ATT {
	a := &ATT{ep: ep, server: server}
	ep.HandleFixed(l2cap.CIDATT, (*attFixed)(a))
	return a
}

// attFixed is the mux as its endpoint's fixed-channel handler.
type attFixed ATT

func (f *attFixed) FixedPDU(b []byte) { (*ATT)(f).onPDU(b) }

func (a *ATT) onPDU(b []byte) {
	if len(b) == 0 {
		return
	}
	switch b[0] {
	case opReadByGroupTypeReq:
		if a.server == nil {
			a.ep.SendFixed(l2cap.CIDATT, errorRsp(b[0], 0, attErrAttributeNotFound))
			return
		}
		if rsp := a.server.readByGroupType(b); rsp != nil {
			a.ep.SendFixed(l2cap.CIDATT, rsp)
		}
	case opReadByGroupTypeRsp:
		a.onDiscoveryRsp(b)
	case opErrorRsp:
		// Attribute Not Found terminates discovery normally.
		if d := a.disc; d != nil {
			d.s.Cancel(d.timeout)
			a.finish(d.found, nil)
		}
	}
}

// DiscoverPrimaryServices walks the peer's attribute database and hands
// every primary service found to c (or an error on timeout, which s times).
// Only one discovery may be outstanding per connection.
func (a *ATT) DiscoverPrimaryServices(s *sim.Sim, c Client) error {
	if a.disc != nil {
		return fmt.Errorf("gatt: discovery already in progress")
	}
	a.disc = &discovery{s: s, next: 1, client: c}
	a.request()
	return nil
}

// SupportsIPSS is the Internet Protocol Support Profile check on a
// discovery's outcome: whether the peer's services include the IPSS.
func SupportsIPSS(svcs []Service) bool { return has(svcs, UUIDIPSS) }

func (a *ATT) request() {
	d := a.disc
	req := make([]byte, 7)
	req[0] = opReadByGroupTypeReq
	binary.LittleEndian.PutUint16(req[1:], d.next)
	binary.LittleEndian.PutUint16(req[3:], 0xFFFF)
	binary.LittleEndian.PutUint16(req[5:], uuidPrimaryService)
	a.ep.SendFixed(l2cap.CIDATT, req)
	d.timeout = d.s.Schedule(d.s.Now()+30*sim.Second, (*attTimeout)(a))
}

func (a *ATT) onDiscoveryRsp(b []byte) {
	d := a.disc
	if d == nil {
		return
	}
	d.s.Cancel(d.timeout)
	if len(b) < 2 || b[1] != 6 {
		a.finish(nil, fmt.Errorf("gatt: malformed discovery response"))
		return
	}
	for p := 2; p+6 <= len(b); p += 6 {
		sv := Service{
			StartHandle: binary.LittleEndian.Uint16(b[p:]),
			EndHandle:   binary.LittleEndian.Uint16(b[p+2:]),
			UUID:        binary.LittleEndian.Uint16(b[p+4:]),
		}
		d.found = append(d.found, sv)
		if sv.EndHandle >= d.next {
			d.next = sv.EndHandle + 1
		}
	}
	if d.next == 0 || d.next == 0xFFFF {
		a.finish(d.found, nil)
		return
	}
	a.request()
}

// finish ends the outstanding discovery, if any, and drops its state: the
// link outlives discovery, its answer need not.
func (a *ATT) finish(svcs []Service, err error) {
	d := a.disc
	if d == nil {
		return
	}
	a.disc = nil
	d.client.Discovered(svcs, err)
}
