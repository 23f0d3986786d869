package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"blemesh/internal/sim"
)

// referenceNDJSON is the fmt encoder WriteNDJSON shipped with before the
// append encoder; the export must stay byte-identical to it.
func referenceNDJSON(w io.Writer, events []Event) {
	for _, e := range events {
		fmt.Fprintf(w, "{\"at\":%d,\"node\":%s,\"kind\":%s,\"id\":%d,\"dur\":%d,\"detail\":%s}\n",
			int64(e.At), strconv.Quote(e.Node), strconv.Quote(e.Kind.String()),
			e.ID, int64(e.Dur), strconv.Quote(e.Detail()))
	}
}

func TestWriteNDJSONMatchesReference(t *testing.T) {
	texts := []string{"", "nrf52dk-1", `cause="x" a\b`, "ctl\x00\x1f\x7f\n\t", "héllo 日本語 😀", "bad\xff\xc3(", "dst=fd00::5a00:0:0:7 len=100"}
	var events []Event
	for k := Kind(0); k <= numKinds+1; k++ { // two kinds past the table
		for i, node := range texts {
			events = append(events, Event{
				At:   sim.Time(int64(k)*1e9 + int64(i)),
				Node: node,
				Kind: k,
				ID:   uint64(i) * 0x5a00_0000_0000_0001,
				Dur:  sim.Duration(i * 376_000),
				text: texts[(i+int(k))%len(texts)],
				r:    Rec{op: opText},
			})
		}
	}
	events = append(events,
		Event{At: math.MaxInt64, ID: math.MaxUint64, Dur: math.MinInt64, Kind: 255},
		Event{At: -1, Dur: -1})
	var got, want bytes.Buffer
	if err := WriteNDJSON(&got, events); err != nil {
		t.Fatal(err)
	}
	referenceNDJSON(&want, events)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range w {
			if i >= len(g) || !bytes.Equal(g[i], w[i]) {
				t.Fatalf("line %d differs from the reference:\n got: %s\nwant: %s", i+1, g[i], w[i])
			}
		}
		t.Fatal("export is longer than the reference")
	}
	if got.Len() == 0 {
		t.Fatal("nothing exported")
	}
}

// TestKeeps pins the guard of the tagged emit sites to the test record
// applies: Keeps(id) ≡ Enabled() && (id == 0 || KeepPkt(id)), for a nil,
// a disarmed and an armed log, with sampling off and on.
func TestKeeps(t *testing.T) {
	ids := []uint64{0, 1, 2, 0x5a00_0000_0000_0001, math.MaxUint64}
	for i := uint64(0); i < 2000; i++ {
		ids = append(ids, 7<<48|i)
	}
	var nilLog *Log
	for _, id := range ids {
		if nilLog.Keeps(id) {
			t.Fatalf("nil log keeps %x", id)
		}
	}
	for _, armed := range []bool{false, true} {
		for _, rate := range []float64{0, 0.1, 0.5, 1} {
			l := New(sim.New(1), 16)
			if armed {
				l.Enable()
			}
			l.SetSampleRate(rate)
			kept := 0
			for _, id := range ids {
				want := l.Enabled() && (id == 0 || l.KeepPkt(id))
				if got := l.Keeps(id); got != want {
					t.Fatalf("armed=%v rate=%v id=%x: Keeps=%v, want %v", armed, rate, id, got, want)
				}
				if want {
					kept++
				}
				// What Keeps admits is recorded, what it refuses is not.
				before := l.Total()
				l.EmitPkt("n", KindPacketTX, id, 0, "x")
				if recorded := l.Total() != before; recorded != want {
					t.Fatalf("armed=%v rate=%v id=%x: recorded=%v but Keeps=%v", armed, rate, id, recorded, want)
				}
			}
			switch {
			case !armed && kept != 0:
				t.Fatalf("disarmed log keeps %d ids", kept)
			case armed && !l.Sampling() && kept != len(ids):
				t.Fatalf("rate %v: kept %d of %d without sampling", rate, kept, len(ids))
			case armed && l.Sampling() && (kept == 0 || kept == len(ids)):
				t.Fatalf("rate %v: kept %d of %d — sampler not exercised", rate, kept, len(ids))
			}
		}
	}
}

// BenchmarkTraceWriteNDJSON prices the export of a full 64k-event ring
// (trace.export_ms of the benchmark; blemesh-trace -export ndjson).
func BenchmarkTraceWriteNDJSON(b *testing.B) {
	events := make([]Event, 1<<16)
	for i := range events {
		events[i] = Event{
			At:   sim.Time(i) * 1250,
			Node: "nrf52dk-" + strconv.Itoa(i%15),
			Kind: Kind(i % int(numKinds)),
			ID:   uint64(i%15)<<48 | uint64(i),
			Dur:  sim.Duration(i%400) * 1000,
			r:    LLTx(3, uint8(i%37), 1, 108),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteNDJSON(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}
