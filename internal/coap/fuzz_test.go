package coap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// refEncode is the RFC 7252 §3 encoding written out the plain way, as a
// reference for AppendTo: the options are copied and stably sorted, and each
// delta and length goes out through its own extension rule.
func refEncode(m *Message) []byte {
	out := []byte{0x40 | byte(m.Type)<<4 | byte(len(m.Token)), byte(m.Code), byte(m.MessageID >> 8), byte(m.MessageID)}
	out = append(out, m.Token...)
	opts := append([]Option(nil), m.Options...)
	sort.SliceStable(opts, func(i, j int) bool { return opts[i].Number < opts[j].Number })
	ext := func(v int) (byte, []byte) {
		switch {
		case v < 13:
			return byte(v), nil
		case v < 269:
			return 13, []byte{byte(v - 13)}
		default:
			return 14, binary.BigEndian.AppendUint16(nil, uint16(v-269))
		}
	}
	prev := uint16(0)
	for _, o := range opts {
		dn, dx := ext(int(o.Number - prev))
		ln, lx := ext(len(o.Value))
		prev = o.Number
		out = append(out, dn<<4|ln)
		out = append(append(append(out, dx...), lx...), o.Value...)
	}
	if len(m.Payload) > 0 {
		out = append(append(out, 0xFF), m.Payload...)
	}
	return out
}

// messageFrom builds a message from fuzz bytes: header fields, a token of up
// to 8 bytes, up to 7 options in the order the bytes give their numbers (so
// out of order, repeated, and with deltas past 13 and 269), whose lengths
// reach past 13 and, with the length byte's top bit, past 269; the rest is
// the payload.
func messageFrom(b []byte) *Message {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	take := func(n int) []byte {
		n = min(n, len(b))
		v := b[:n]
		b = b[n:]
		return v
	}
	h := next()
	m := &Message{Type: Type(h >> 6), Code: Code(next())}
	m.MessageID = uint16(next())<<8 | uint16(next())
	m.Token = take(int(h&0x0F) % 9)
	for n := int(next() % 8); n > 0; n-- {
		num := uint16(next())<<8 | uint16(next())
		l := int(next())
		if l&0x80 != 0 {
			l = 269 + (l&0x7F)*4
		}
		m.AddOption(num, take(l))
	}
	m.Payload = b
	return m
}

// sameMessage reports whether two messages carry the same fields, options
// in order, comparing bytes (a nil and an empty slice are the same).
func sameMessage(a, b *Message) bool {
	if a.Type != b.Type || a.Code != b.Code || a.MessageID != b.MessageID ||
		!bytes.Equal(a.Token, b.Token) || !bytes.Equal(a.Payload, b.Payload) ||
		len(a.Options) != len(b.Options) {
		return false
	}
	for i := range a.Options {
		if a.Options[i].Number != b.Options[i].Number || !bytes.Equal(a.Options[i].Value, b.Options[i].Value) {
			return false
		}
	}
	return true
}

// deepCopy returns m with copies of all its bytes.
func deepCopy(m *Message) *Message {
	c := *m
	c.Token = bytes.Clone(m.Token)
	c.Payload = bytes.Clone(m.Payload)
	c.Options = nil
	for _, o := range m.Options {
		c.AddOption(o.Number, bytes.Clone(o.Value))
	}
	return &c
}

// checkCodec holds the codec to its contract on m: AppendTo (onto a prefix,
// and into spare capacity) and Encode give the reference encoding; the
// in-place decode and Decode give m back with its options in stable number
// order; and Decode's message keeps its bytes when the input is overwritten.
func checkCodec(t *testing.T, m *Message) {
	t.Helper()
	want := refEncode(m)
	enc, err := m.Encode()
	if err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("Encode = % x, %v; reference % x", enc, err, want)
	}
	prefix := []byte{0xA5, 0x5A}
	app, err := m.AppendTo(prefix)
	if err != nil || !bytes.Equal(app[:2], prefix) || !bytes.Equal(app[2:], want) {
		t.Fatalf("AppendTo(prefix) = % x, %v; reference % x", app, err, want)
	}
	var spare [64]byte
	if app, err = m.AppendTo(spare[:0]); err != nil || !bytes.Equal(app, want) {
		t.Fatalf("AppendTo(spare capacity) = % x, %v; reference % x", app, err, want)
	}

	sorted := deepCopy(m)
	sort.SliceStable(sorted.Options, func(i, j int) bool { return sorted.Options[i].Number < sorted.Options[j].Number })
	got, err := Decode(enc)
	if err != nil || !sameMessage(got, sorted) {
		t.Fatalf("Decode = %+v, %v; want %+v", got, err, sorted)
	}
	wire := bytes.Clone(enc)
	inPlace := &Message{Options: make([]Option, 0, 1)}
	if err := inPlace.decodeInPlace(wire); err != nil || !sameMessage(inPlace, got) {
		t.Fatalf("decodeInPlace = %+v, %v; Decode %+v", inPlace, err, got)
	}

	kept := deepCopy(got)
	for i := range enc {
		enc[i] ^= 0xFF
	}
	if !sameMessage(got, kept) {
		t.Fatalf("Decode's message changed when its input was overwritten: %+v, was %+v", got, kept)
	}
}

// TestCodecProperty runs the codec contract over hand-picked messages — out
// of order and repeated options, every delta and length extension — and
// messages built from random bytes.
func TestCodecProperty(t *testing.T) {
	long := bytes.Repeat([]byte{7}, 300)
	cases := []*Message{
		{Type: NON, Code: CodeGET, MessageID: 1, Token: []byte{0, 1}, Options: []Option{{OptUriPath, []byte("s")}}, Payload: make([]byte, 39)},
		{Type: CON, Code: CodePOST, Options: []Option{{OptUriQuery, []byte("q")}, {OptUriPath, []byte("a")}, {OptContentFormat, nil}, {OptUriPath, []byte("b")}}},
		{Type: ACK, Code: CodeContent, Options: []Option{{2000, long}, {300, long[:20]}, {1, []byte{9}}, {30, long[:13]}, {30, long[:268]}, {299, long[:269]}}},
		{Type: RST, Code: CodeEmpty, Token: bytes.Repeat([]byte{3}, 8)},
	}
	for _, m := range cases {
		checkCodec(t, m)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(600))
		r.Read(b)
		checkCodec(t, messageFrom(b))
	}
}

// FuzzCodec holds the codec contract (checkCodec) on messages built from
// the fuzzer's bytes (messageFrom); the committed corpus seeds the paper's
// request, out-of-order options and extended deltas and lengths.
func FuzzCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		checkCodec(t, messageFrom(b))
	})
}
