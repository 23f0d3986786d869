package trace_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// fieldVals is one assignment of every value an emit site passes.
type fieldVals struct {
	addr               ip6.Addr
	mac                uint64
	conn, try, n, qlen uint32
	ev                 uint64
	mid, rank          uint16
	ch, hl, typ        uint8
	itvl               sim.Duration
	// Indices into the closed enums: loss reason, role, rank cause and
	// CoAP failure.
	loss, role, rankCause, coapFail uint8
}

// refRankCauses are the cause strings the rpl package passed before rank
// causes were typed, in RankCause order.
var refRankCauses = []string{"root", "dio", "parent-link-down", "parent-poisoned", "parent-timeout", "rank-bound"}

// refTypeName is the rpl package's message type name as traces printed it.
func refTypeName(t byte) string {
	switch t {
	case 0x01:
		return "dio"
	case 0x02:
		return "dao"
	case 0x03:
		return "dis"
	}
	return fmt.Sprintf("type-%#x", t)
}

// refCase is one emit site: the format string and arguments it printed its
// detail with, and the typed record that replaced them.
type refCase struct {
	site   string
	format string
	args   []any
	rec    trace.Rec
}

// refCases is the reference table: every emit site of ble, l2cap, core,
// ip6, coap and rpl, with the format string it used before records were
// typed, at the values v.
func refCases(v fieldVals) []refCase {
	conn := int(v.conn)
	loss := ble.LossReason(v.loss % 3)
	role := ble.Role(v.role % 2)
	rc := trace.RankCause(int(v.rankCause) % len(refRankCauses))
	failure, cerr := trace.CoAPTimeout, coap.ErrTimeout
	if v.coapFail%2 == 1 {
		failure, cerr = trace.CoAPGaveUp, coap.ErrGaveUp
	}
	return []refCase{
		{"ip6 pkt-tx", "dst=%v len=%d", []any{v.addr, int(v.n)}, trace.PktTX(v.addr, int(v.n))},
		{"ip6 loopback", "src=%v loopback", []any{v.addr}, trace.PktLoopback(v.addr)},
		{"ip6 no-route", "cause=no-route dst=%v", []any{v.addr}, trace.Drop(trace.CauseNoRoute, v.addr)},
		{"ip6 no-neighbor", "cause=no-neighbor nh=%v", []any{v.addr}, trace.Drop(trace.CauseNoNeighbor, v.addr)},
		{"ip6 queue-full", "cause=queue-full nh=%v", []any{v.addr}, trace.Drop(trace.CauseQueueFull, v.addr)},
		{"ip6 pkt-rx", "src=%v len=%d", []any{v.addr, int(v.n)}, trace.PktRX(v.addr, int(v.n))},
		{"ip6 hop-limit", "cause=hop-limit dst=%v", []any{v.addr}, trace.Drop(trace.CauseHopLimit, v.addr)},
		{"ip6 pkt-fwd", "dst=%v hl=%d", []any{v.addr, v.hl}, trace.PktFwd(v.addr, v.hl)},
		{"coap retry", "dst=%v mid=%d try=%d", []any{v.addr, v.mid, int(v.try)}, trace.CoAPReq(v.addr, v.mid, int(v.try))},
		{"coap request", "dst=%v mid=%d try=1", []any{v.addr, v.mid}, trace.CoAPReq(v.addr, v.mid, 1)},
		{"coap fail", "err=%v", []any{cerr}, trace.CoAPFail(failure)},
		{"coap response", "src=%v mid=%d", []any{v.addr, v.mid}, trace.CoAPRsp(v.addr, v.mid)},
		{"ble event-skipped", "conn#%d ev=%d qlen=%d", []any{conn, v.ev, int(v.qlen)}, trace.EventSkipped(conn, v.ev, int(v.qlen))},
		{"ble ll-tx", "conn#%d ch=%d try=%d len=%d", []any{conn, phy.Channel(v.ch), int(v.try), int(v.n)}, trace.LLTx(conn, v.ch, int(v.try), int(v.n))},
		{"ble ll-ready", "conn#%d qlen=%d", []any{conn, int(v.qlen)}, trace.LLReady(conn, int(v.qlen))},
		{"ble ll-rx", "conn#%d ch=%d len=%d", []any{conn, phy.Channel(v.ch), int(v.n)}, trace.LLRx(conn, v.ch, int(v.n))},
		{"ble terminate", "cause=link-reset conn#%d reason=%s", []any{conn, loss}, trace.DropConnLost(conn, loss)},
		{"ble TraceDrop", "cause=%s conn#%d", []any{"link-reset", conn}, trace.DropLinkReset(conn)},
		{"rpl rx", "rx %s from=%012x rank=%d", []any{refTypeName(v.typ), v.mac, v.rank}, trace.RPLRx(v.typ, v.mac, v.rank)},
		{"rpl tx", "tx %s to=%012x rank=%d", []any{refTypeName(v.typ), v.mac, v.rank}, trace.RPLTx(v.typ, v.mac, v.rank)},
		{"rpl rank", "rank=%d parent=%012x cause=%s", []any{v.rank, v.mac, refRankCauses[rc]}, trace.RPLRank(v.rank, v.mac, rc)},
		{"core link-down", "cause=link-down peer=%012x", []any{v.mac}, trace.DropLinkDown(v.mac)},
		{"core conn-open", "peer=%v role=%v itvl=%v", []any{ble.DevAddr(v.mac), role, v.itvl}, trace.ConnOpen(v.mac, role, v.itvl)},
		{"core conn-loss", "peer=%v reason=%v", []any{ble.DevAddr(v.mac), loss}, trace.ConnLoss(v.mac, loss)},
	}
}

// checkDetails records every site's record at v and compares each rendered
// Detail, and its NDJSON and CSV fields, with the reference format.
func checkDetails(t *testing.T, v fieldVals) {
	t.Helper()
	cases := refCases(v)
	l := trace.New(sim.New(1), 0)
	l.Enable()
	for _, c := range cases {
		l.Add("n", 0, 0, c.rec)
	}
	evs := l.Events("")
	if len(evs) != len(cases) {
		t.Fatalf("recorded %d events, want %d", len(evs), len(cases))
	}
	var nd, csv strings.Builder
	if err := trace.WriteNDJSON(&nd, evs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(&csv, evs); err != nil {
		t.Fatal(err)
	}
	ndLines := strings.Split(nd.String(), "\n")
	csvLines := strings.Split(csv.String(), "\n")[1:]
	for i, c := range cases {
		want := fmt.Sprintf(c.format, c.args...)
		got := evs[i].Detail()
		if got != want {
			t.Fatalf("%s at %+v:\n got %q\nwant %q", c.site, v, got, want)
		}
		if !strings.HasSuffix(ndLines[i], `,"detail":`+strconv.Quote(want)+"}") {
			t.Fatalf("%s: NDJSON line %s, want detail %q", c.site, ndLines[i], want)
		}
		if strings.ContainsAny(want, ",\"\n\r") || !strings.HasSuffix(csvLines[i], ","+want) {
			t.Fatalf("%s: CSV line %s, want detail %q unquoted", c.site, csvLines[i], want)
		}
	}
}

// TestDetailMatchesFormat renders every site's record over every value of
// its closed enums and at the edges of its fields — a zero and an
// IPv4-mapped address, the largest rank, an interval in each branch of
// sim.Time.String, a MAC with a leading zero byte — and compares each with
// the format the site printed before records were typed.
func TestDetailMatchesFormat(t *testing.T) {
	base := fieldVals{
		addr: ip6.MustParseAddr("fd00::5a00:0:0:7"), mac: 0x5a0000000007,
		conn: 3, try: 1, n: 108, qlen: 2, ev: 1234, mid: 77, rank: 512,
		ch: 36, hl: 63, typ: 1, itvl: 75 * sim.Millisecond,
	}
	for loss := uint8(0); loss < 3; loss++ {
		for role := uint8(0); role < 2; role++ {
			for rc := 0; rc < len(refRankCauses); rc++ {
				for fail := uint8(0); fail < 2; fail++ {
					for _, typ := range []uint8{0, 1, 2, 3, 4, 0x9b, 255} {
						v := base
						v.loss, v.role, v.rankCause, v.coapFail, v.typ = loss, role, uint8(rc), fail, typ
						checkDetails(t, v)
					}
				}
			}
		}
	}
	edges := []func(v *fieldVals){
		func(v *fieldVals) { v.addr = ip6.Addr{} },
		func(v *fieldVals) { v.addr = ip6.Addr{10: 0xff, 11: 0xff, 12: 10, 15: 1} },
		func(v *fieldVals) { v.addr = ip6.Addr{10: 0xff, 11: 0xff} },
		func(v *fieldVals) { v.addr = ip6.MustParseAddr("::1") },
		func(v *fieldVals) { v.addr = ip6.MustParseAddr("fe80::5800:ff:fe00:7") },
		func(v *fieldVals) { v.addr = ip6.AllNodes },
		func(v *fieldVals) { v.addr = ip6.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff") },
		func(v *fieldVals) { v.addr = ip6.MustParseAddr("1:0:0:1:0:0:0:1") },
		func(v *fieldVals) { v.rank = math.MaxUint16 },
		func(v *fieldVals) { v.rank = 0 },
		func(v *fieldVals) { v.mac = 0x00aabbccddee },
		func(v *fieldVals) { v.mac = 0 },
		func(v *fieldVals) { v.mac = 0xffffffffffff },
		func(v *fieldVals) { v.mac = 0x1_0203_0405_0607 },
		func(v *fieldVals) { v.mac = math.MaxUint64 },
		func(v *fieldVals) { v.itvl = 0 },
		func(v *fieldVals) { v.itvl = 999 },
		func(v *fieldVals) { v.itvl = sim.Microsecond },
		func(v *fieldVals) { v.itvl = sim.Millisecond - 1 },
		func(v *fieldVals) { v.itvl = sim.Millisecond },
		func(v *fieldVals) { v.itvl = 7*sim.Millisecond + 500*sim.Microsecond },
		func(v *fieldVals) { v.itvl = sim.Second - 1 },
		func(v *fieldVals) { v.itvl = sim.Second },
		func(v *fieldVals) { v.itvl = 4 * sim.Second },
		func(v *fieldVals) { v.itvl = math.MaxInt64 },
		func(v *fieldVals) { v.itvl = -1 },
		func(v *fieldVals) { v.conn, v.try, v.n, v.qlen = 0, 0, 0, 0 },
		func(v *fieldVals) {
			v.conn, v.try, v.n, v.qlen = math.MaxUint32, math.MaxUint32, math.MaxUint32, math.MaxUint32
		},
		func(v *fieldVals) { v.ev, v.mid, v.ch, v.hl = math.MaxUint64, math.MaxUint16, 255, 255 },
		func(v *fieldVals) { v.ev, v.mid, v.ch, v.hl = 0, 0, 0, 0 },
	}
	for _, edge := range edges {
		v := base
		edge(&v)
		checkDetails(t, v)
	}
}

// FuzzTraceDetail fuzzes every site's field values against the reference
// formats.
func FuzzTraceDetail(f *testing.F) {
	f.Add([]byte("fd00::7"), uint64(0x5a0000000007), uint32(3), uint32(1), uint32(108), uint64(1234), uint16(77), uint16(512), uint8(36), uint8(63), uint8(1), int64(75e6), uint8(0))
	f.Add(make([]byte, 16), uint64(0), uint32(0), uint32(0), uint32(0), uint64(0), uint16(0), uint16(0xffff), uint8(0), uint8(0), uint8(0), int64(0), uint8(0xff))
	f.Add([]byte{10: 0xff, 11: 0xff, 12: 10, 15: 1}, uint64(0x00aabbccddee), uint32(1<<31), uint32(7), uint32(27), uint64(math.MaxUint64), uint16(1), uint16(256), uint8(39), uint8(1), uint8(0x9b), int64(-5), uint8(0x5a))
	f.Fuzz(func(t *testing.T, addr []byte, mac uint64, conn, try, n uint32, ev uint64, mid, rank uint16, ch, hl, typ uint8, itvl int64, enums uint8) {
		v := fieldVals{mac: mac, conn: conn, try: try, n: n, qlen: try ^ n, ev: ev, mid: mid, rank: rank,
			ch: ch, hl: hl, typ: typ, itvl: sim.Duration(itvl),
			loss: enums, role: enums >> 2, rankCause: enums >> 3, coapFail: enums >> 6}
		copy(v.addr[:], addr)
		checkDetails(t, v)
	})
}
