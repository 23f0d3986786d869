// Package ble implements the Bluetooth Low Energy link layer as used by
// IPv6-over-BLE: connection events with deterministic connection intervals,
// coordinator/subordinate roles, channel-selection algorithms over channel
// maps fixed at setup, the 1-bit SN/NESN acknowledgement scheme, supervision
// timeouts, window widening against clock drift, advertising and scanning,
// and — critically — a per-node radio scheduler that can service only one
// event at a time. The combination of deterministic intervals, independent
// clock drift, and the single radio reproduces the paper's "connection
// shading" phenomenon.
//
// Terminology follows the paper: "coordinator" and "subordinate" replace the
// Bluetooth specification's role names.
package ble

import (
	"fmt"

	"blemesh/internal/sim"
)

// PHY timing constants for the 1 Mbps LE PHY (the only mode the nrf52dk
// supports and the one the paper deploys).
const (
	// IFS is the inter-frame spacing: exactly 150µs on the 1 Mbps PHY.
	IFS = 150 * sim.Microsecond
	// ByteTime is the airtime of a single byte at 1 Mbps.
	ByteTime = 8 * sim.Microsecond
	// PDUOverhead is preamble(1) + access address(4) + header(2) + CRC(3).
	PDUOverhead = 10
	// MaxDataLen is the maximum LL data payload with the data length
	// extension enabled, as in the paper's NimBLE configuration.
	MaxDataLen = 251
	// ConnIntervalUnit is the granularity of the connection interval
	// field (1.25 ms per the specification).
	ConnIntervalUnit = 1250 * sim.Microsecond
	// MinConnInterval and MaxConnInterval bound legal connection
	// intervals (7.5 ms .. 4 s).
	MinConnInterval = 7500 * sim.Microsecond
	MaxConnInterval = 4 * sim.Second
	// TransmitWindowDelay is the fixed delay between the end of the
	// CONNECT_IND and the start of the transmit window.
	TransmitWindowDelay = 1250 * sim.Microsecond
	// WindowWideningBase is the constant term added to drift-derived
	// window widening (instantaneous jitter allowance).
	WindowWideningBase = 32 * sim.Microsecond
	// CarrierMargin is how long a receiver waits past the expected packet
	// start for a preamble before giving up (address-match timeout).
	CarrierMargin = 48 * sim.Microsecond
)

// Airtime returns the on-air duration of a data-channel PDU with the given
// payload length at 1 Mbps.
func Airtime(payloadLen int) sim.Duration {
	return sim.Duration(PDUOverhead+payloadLen) * ByteTime
}

// DevAddr is a 48-bit BLE device address.
type DevAddr uint64

// String renders the address in the usual colon-separated form.
func (a DevAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(a>>40), byte(a>>32), byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// LLID distinguishes data-channel PDU types, as in the LL header.
type LLID byte

// LLID values.
const (
	// LLIDDataCont is an L2CAP PDU continuation fragment (or empty PDU).
	LLIDDataCont LLID = 0x01
	// LLIDDataStart is the start of an L2CAP PDU.
	LLIDDataStart LLID = 0x02
	// LLIDControl is an LL control PDU.
	LLIDControl LLID = 0x03
)

// ControlOpcode identifies LL control procedures we implement.
type ControlOpcode byte

// Control opcodes (subset relevant to the platform).
const (
	OpConnUpdateInd ControlOpcode = 0x00
	OpTerminateInd  ControlOpcode = 0x02
	// OpConnParamReq/OpRejectInd implement the BLE 4.1+ Connection
	// Parameters Request procedure: the subordinate proposes new
	// parameters, the coordinator applies or rejects them. §6.3 of the
	// paper discusses (and dismisses) this as a shading mitigation.
	OpConnParamReq ControlOpcode = 0x0F
	OpRejectInd    ControlOpcode = 0x0D
)

// DataPDU is a data-channel packet. SN/NESN/MD mirror the 1-bit sequence
// number acknowledgement scheme of the LL header. Access is the
// connection's access address: real radios only synchronise to their own
// connection's 32-bit access address, so packets of co-channel connections
// are invisible to them.
type DataPDU struct {
	Access  uint32
	LLID    LLID
	SN      byte
	NESN    byte
	MD      bool
	Payload []byte

	// Control PDU fields (valid when LLID == LLIDControl).
	Opcode  ControlOpcode
	Instant uint16
	Update  ConnUpdate

	// PID is simulation metadata: the provenance ID of the application
	// packet this PDU carries a fragment of (0 = untagged). It is not an
	// on-air field and never counts toward Len().
	PID uint64
	// from is simulation metadata too: the endpoint that sent the PDU. The
	// receiver keeps it once the access address has matched, which is how
	// a coordinator finds the state of its peer (Conn.fusedIdle).
	from *Conn
}

// Len returns the LL payload length in bytes for airtime purposes.
func (p *DataPDU) Len() int {
	if p.LLID == LLIDControl {
		switch p.Opcode {
		case OpConnUpdateInd:
			return 12
		case OpConnParamReq:
			return 24
		default:
			return 2
		}
	}
	return len(p.Payload)
}

// ConnUpdate carries the fields of an LL_CONNECTION_UPDATE_IND.
type ConnUpdate struct {
	Interval    sim.Duration
	Latency     int
	Supervision sim.Duration
}

// AdvPDUType distinguishes advertising-channel PDUs.
type AdvPDUType byte

// Advertising PDU types we model.
const (
	PDUAdvInd     AdvPDUType = 0x00 // connectable undirected advertising
	PDUConnectInd AdvPDUType = 0x05 // connection request from an initiator
)

// AdvPDU is an advertising-channel packet.
type AdvPDU struct {
	Type AdvPDUType
	Adv  DevAddr // advertiser address
	Init DevAddr // initiator address (CONNECT_IND only)
	// DataLen is the advertising payload length (flags, IPSS service
	// UUID, ...); only its size matters on the air.
	DataLen int
	// Connection parameters (CONNECT_IND only).
	Params ConnParams
	// WinOffset positions the first connection event (CONNECT_IND only).
	WinOffset sim.Duration
}

// AdvAirtime returns the on-air duration of an advertising PDU at 1 Mbps.
func (p *AdvPDU) AdvAirtime() sim.Duration {
	switch p.Type {
	case PDUConnectInd:
		// AdvA(6) + InitA(6) + LLData(22).
		return Airtime(34)
	default:
		return Airtime(6 + p.DataLen)
	}
}

// ConnParams are the link parameters the connection coordinator dictates at
// connection initiation (and may later update via LL control procedures).
type ConnParams struct {
	// Interval is the connection interval (multiple of 1.25 ms).
	Interval sim.Duration
	// Latency is the subordinate latency: the number of connection
	// events the subordinate may skip when it has nothing to send.
	Latency int
	// Supervision is the supervision timeout: the connection is declared
	// lost when no valid packet is received for this long.
	Supervision sim.Duration
	// ChanMap restricts the data channels in use. It is fixed when the
	// connection is set up: the paper leaves the jammed channel 22 out.
	ChanMap ChannelMap
	// CoordSCA is the coordinator's declared sleep-clock accuracy in ppm,
	// used by the subordinate for window widening.
	CoordSCA float64
}

// Validate normalises and checks the parameter set, applying defaults for
// zero values: supervision 20×interval clamped to [100ms, 32s], all
// channels, 50 ppm declared SCA.
func (p *ConnParams) Validate() error {
	if p.Interval < MinConnInterval || p.Interval > MaxConnInterval {
		return fmt.Errorf("ble: connection interval %v out of range [7.5ms, 4s]", p.Interval)
	}
	if p.Interval%ConnIntervalUnit != 0 {
		return fmt.Errorf("ble: connection interval %v not a multiple of 1.25ms", p.Interval)
	}
	if p.Latency < 0 || p.Latency > 499 {
		return fmt.Errorf("ble: subordinate latency %d out of range", p.Latency)
	}
	if p.Supervision == 0 {
		p.Supervision = 20 * p.Interval
		if p.Supervision < 100*sim.Millisecond {
			p.Supervision = 100 * sim.Millisecond
		}
		if p.Supervision > 32*sim.Second {
			p.Supervision = 32 * sim.Second
		}
	}
	if p.Supervision < sim.Duration(1+p.Latency)*2*p.Interval {
		return fmt.Errorf("ble: supervision timeout %v too short for interval %v latency %d",
			p.Supervision, p.Interval, p.Latency)
	}
	if p.ChanMap == 0 {
		p.ChanMap = AllDataChannels
	}
	if p.ChanMap.Count() < 2 {
		return fmt.Errorf("ble: channel map must keep at least 2 data channels")
	}
	if p.CoordSCA == 0 {
		p.CoordSCA = 50
	}
	return nil
}
