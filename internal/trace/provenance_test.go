package trace

import (
	"strings"
	"testing"

	"blemesh/internal/sim"
)

func TestEmitPktAndEventsByID(t *testing.T) {
	s := sim.New(1)
	l := New(s, 32)
	l.Enable()
	l.Add("a", 7, 0, PktTX(dstC, 40))
	l.Add("a", 7, 300*sim.Microsecond, LLTx(1, 5, 1, 27))
	l.EmitPkt("b", KindLLRx, 9, 300*sim.Microsecond, "other packet")
	got := l.EventsByID(7)
	if len(got) != 2 || got[0].Kind != KindPacketTX || got[1].Dur != 300*sim.Microsecond {
		t.Fatalf("EventsByID: %+v", got)
	}
	if !strings.Contains(got[0].String(), "0000000000000007") {
		t.Fatalf("tagged event string lacks ID: %q", got[0].String())
	}
	if o := l.EventsByID(9); len(o) != 1 || o[0].Detail() != "other packet" {
		t.Fatalf("EmitPkt text event: %+v", o)
	}
}

// dstC is the address the synthetic journeys are sent to.
var dstC = [16]byte{0: 0xfd, 15: 0x0c}

func TestDropCauses(t *testing.T) {
	s := sim.New(1)
	l := New(s, 32)
	l.Enable()
	l.Add("a", 1, 0, Drop(CauseNoRoute, dstC))
	l.Add("a", 2, 0, Drop(CauseNoRoute, [16]byte{}))
	l.Add("b", 3, 0, DropLinkDown(0xabc))
	l.Add("b", 4, 0, DropConnLost(2, LossSupervision))
	l.Add("b", 5, 0, DropLinkReset(2))
	l.EmitPkt("b", KindPacketDrop, 6, 0, "cause=queue-full text")
	got := l.DropCauses()
	if len(got) != 3 || got["no-route"] != 2 || got["link-down"] != 1 || got["link-reset"] != 2 {
		t.Fatalf("DropCauses: %v", got)
	}
}

// emitHop plays one hop of a synthetic journey into the log: ready at
// +queue, first TX at +queue+wait, delivery after `tries` attempts spaced
// by the retransmission gap, with the given airtime per PDU.
func emitHop(s *sim.Sim, l *Log, id uint64, from, to string, start sim.Time,
	queue, wait, air, gap sim.Duration, tries int) sim.Time {
	s.At(start+sim.Time(queue), func() { l.Add(from, id, 0, LLReady(1, 1)) })
	tx := start + sim.Time(queue+wait)
	for i := 0; i < tries; i++ {
		at := tx + sim.Time(sim.Duration(i)*gap)
		s.At(at, func() { l.Add(from, id, air, LLTx(1, 5, i+1, 27)) })
	}
	end := tx + sim.Time(sim.Duration(tries-1)*gap+air)
	s.At(end, func() { l.Add(to, id, air, LLRx(1, 5, 27)) })
	return end
}

func TestJourneyDecompositionExact(t *testing.T) {
	s := sim.New(1)
	l := New(s, 256)
	l.Enable()
	const id = 0x42
	// Two hops: a->b (2 tries), b->c (1 try). All times in µs for clarity.
	us := sim.Microsecond
	s.At(1000, func() { l.Add("a", id, 0, PktTX(dstC, 40)) })
	end1 := emitHop(s, l, id, "a", "b", 1000, 50*us, 200*us, 30*us, 75*us, 2)
	s.At(end1, func() { l.Add("b", id, 0, PktFwd(dstC, 63)) })
	end2 := emitHop(s, l, id, "b", "c", end1, 10*us, 100*us, 30*us, 0, 1)
	s.At(end2, func() { l.Add("c", id, 0, PktRX(dstC, 40)) })
	s.Run(sim.Second)

	js := Journeys(l)
	if len(js) != 1 {
		t.Fatalf("journeys: %d", len(js))
	}
	j := js[0]
	if !j.Delivered || j.Origin != "a" || j.Final != "c" || len(j.Hops) != 2 {
		t.Fatalf("journey: %+v", j)
	}
	if j.ComponentSum() != j.Latency() {
		t.Fatalf("components %v != latency %v", j.ComponentSum(), j.Latency())
	}
	h0 := j.Hops[0]
	if h0.Queue != 50*us || h0.IntervalWait != 200*us || h0.Airtime != 30*us || h0.Tries != 2 {
		t.Fatalf("hop 0: %+v", h0)
	}
	// Retrans residual of hop 0: 1 retry gap (75µs) + the airtime the Dur
	// field doesn't cover (the first try's 30µs is folded into the gap
	// spacing here, so residual = total - queue - wait - airtime).
	if h0.Retrans != h0.Total()-h0.Queue-h0.IntervalWait-h0.Airtime {
		t.Fatalf("hop 0 residual: %+v", h0)
	}
	h1 := j.Hops[1]
	if h1.Queue != 10*us || h1.IntervalWait != 100*us || h1.Tries != 1 || h1.Retrans != 0 {
		t.Fatalf("hop 1: %+v", h1)
	}
	d := Decompose(js)
	if d.Delivered != 1 || d.Hops != 2 || d.Queue != 60*us {
		t.Fatalf("decompose: %+v", d)
	}
	wf := j.Waterfall(40)
	if !strings.Contains(wf, "a>b") || !strings.Contains(wf, "b>c") ||
		!strings.Contains(wf, "delivered") {
		t.Fatalf("waterfall:\n%s", wf)
	}
}

func TestJourneyDrop(t *testing.T) {
	s := sim.New(1)
	l := New(s, 64)
	l.Enable()
	s.At(100, func() { l.Add("a", 5, 0, PktTX(dstC, 40)) })
	s.At(200, func() { l.Add("a", 5, 0, Drop(CauseQueueFull, dstC)) })
	s.Run(sim.Second)
	js := Journeys(l)
	if len(js) != 1 || js[0].Delivered || js[0].DropCause != "queue-full" {
		t.Fatalf("dropped journey: %+v", js[0])
	}
	if js[0].End != 200 {
		t.Fatalf("end: %v", js[0].End)
	}
}

func TestJourneysSkipUnanchored(t *testing.T) {
	s := sim.New(1)
	l := New(s, 64)
	l.Enable()
	// Span events whose pkt-tx was evicted must not fabricate a journey.
	l.Add("b", 77, 10, LLRx(1, 5, 27))
	l.Add("c", 77, 0, PktRX(dstC, 40))
	if js := Journeys(l); len(js) != 0 {
		t.Fatalf("unanchored journey fabricated: %+v", js)
	}
}

func TestExportNDJSONAndCSV(t *testing.T) {
	s := sim.New(1)
	l := New(s, 16)
	l.Enable()
	s.At(sim.Millisecond, func() {
		l.Add("n1", 0xABC, 328*sim.Microsecond, LLTx(1, 5, 2, 27))
		l.EmitPkt("n2", KindConnLoss, 0, 0, `reason="supervision, timeout"`)
	})
	s.Run(sim.Second)

	var nd strings.Builder
	if err := l.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(nd.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("ndjson lines: %d", len(lines))
	}
	want := `{"at":1000000,"node":"n1","kind":"ll-tx","id":2748,"dur":328000,"detail":"conn#1 ch=5 try=2 len=27"}`
	if lines[0] != want {
		t.Fatalf("ndjson[0]:\n got %s\nwant %s", lines[0], want)
	}

	var csv strings.Builder
	if err := WriteCSV(&csv, l.Events("")); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.HasPrefix(out, "at_ns,node,kind,id,dur_ns,detail\n") {
		t.Fatalf("csv header: %q", out)
	}
	// The detail containing commas and quotes must be quoted.
	if !strings.Contains(out, `"reason=""supervision, timeout"""`) {
		t.Fatalf("csv quoting: %q", out)
	}
}
