package sixlo

import (
	"bytes"
	"encoding/binary"
	"testing"

	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
)

// FuzzDecompressBuf holds the adaptation layer's only input parser to two
// properties. Read as a received frame, any byte string either fails to
// decompress or yields a packet ip6.Decode accepts. Read as an IPv6 packet,
// any string ip6.Decode accepts and CompressBuf may compress (a unicast
// destination; a UDP length field that matches the payload, since IPHC
// elides it) comes back byte for byte after CompressBuf and DecompressBuf.
func FuzzDecompressBuf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, srcMAC, dstMAC uint64) {
		b := pktbuf.FromBytes(data)
		if err := DecompressBuf(b, srcMAC, dstMAC, DefaultContexts); err == nil {
			if _, _, err := ip6.Decode(b.Bytes()); err != nil {
				t.Fatalf("frame %x decompressed to %x, which ip6.Decode rejects: %v", data, b.Bytes(), err)
			}
		}
		b.Put()

		h, payload, err := ip6.Decode(data)
		if err != nil || h.Dst.IsMulticast() {
			return
		}
		if h.NextHeader == ip6.ProtoUDP && len(payload) >= ip6.UDPHeaderLen &&
			int(binary.BigEndian.Uint16(payload[4:])) != len(payload) {
			return
		}
		pkt := data[:ip6.HeaderLen+h.PayloadLen]
		c := pktbuf.FromBytes(data)
		defer c.Put()
		if err := CompressBuf(c, srcMAC, dstMAC, DefaultContexts); err != nil {
			t.Fatalf("packet %x not compressed: %v", pkt, err)
		}
		frame := bytes.Clone(c.Bytes())
		if err := DecompressBuf(c, srcMAC, dstMAC, DefaultContexts); err != nil {
			t.Fatalf("frame %x from CompressBuf not decompressed: %v", frame, err)
		}
		if !bytes.Equal(c.Bytes(), pkt) {
			t.Fatalf("round trip via %x\n in: %x\nout: %x", frame, pkt, c.Bytes())
		}
	})
}
