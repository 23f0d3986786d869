package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"blemesh/internal/sim"
)

func TestDisabledLogIsCheapAndEmpty(t *testing.T) {
	s := sim.New(1)
	l := New(s, 16)
	l.Emit("n1", KindPacketTX, "should vanish")
	if l.Enabled() || l.Total() != 0 || len(l.Events("")) != 0 {
		t.Fatal("disabled log recorded something")
	}
	var nilLog *Log
	nilLog.Emit("n1", KindPacketTX, "must not panic")
	if nilLog.Enabled() {
		t.Fatal("nil log enabled")
	}
}

func TestEmitAndQuery(t *testing.T) {
	s := sim.New(1)
	l := New(s, 16)
	l.Enable()
	s.At(sim.Second, func() { l.Emit("n1", KindConnOpen, "peer=%s", "n2") })
	s.At(2*sim.Second, func() { l.Emit("n2", KindConnLoss, "supervision") })
	s.Run(10 * sim.Second)
	all := l.Events("")
	if len(all) != 2 {
		t.Fatalf("events: %d", len(all))
	}
	if all[0].Kind != KindConnOpen || all[0].At != sim.Second || all[0].Detail != "peer=n2" {
		t.Fatalf("event 0: %+v", all[0])
	}
	if got := l.Events("n2"); len(got) != 1 || got[0].Kind != KindConnLoss {
		t.Fatalf("node filter: %+v", got)
	}
	if got := l.Events("", KindConnOpen); len(got) != 1 {
		t.Fatalf("kind filter: %+v", got)
	}
	if got := l.Events("n1"); len(got) != 1 || !strings.Contains(got[0].String(), "conn-open") {
		t.Fatalf("rendered event: %v", got)
	}
	if l.CountByKind()[KindConnLoss] != 1 {
		t.Fatal("count by kind")
	}
}

func TestRingEviction(t *testing.T) {
	s := sim.New(1)
	l := New(s, 8)
	l.Enable()
	for i := 0; i < 20; i++ {
		l.Emit("n", KindPacketTX, "seq=%d", i)
	}
	evs := l.Events("")
	if len(evs) != 8 {
		t.Fatalf("retained %d, cap 8", len(evs))
	}
	if evs[0].Detail != "seq=12" || evs[7].Detail != "seq=19" {
		t.Fatalf("eviction order wrong: %v .. %v", evs[0].Detail, evs[7].Detail)
	}
	if l.Total() != 20 {
		t.Fatalf("total=%d", l.Total())
	}
}

func TestRecordingFilter(t *testing.T) {
	s := sim.New(1)
	l := New(s, 16)
	l.Enable()
	l.SetFilter(KindConnLoss)
	l.Emit("n", KindPacketTX, "dropped at source")
	l.Emit("n", KindConnLoss, "kept")
	if got := l.Events(""); len(got) != 1 || got[0].Kind != KindConnLoss {
		t.Fatalf("filter: %+v", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Fatal("unknown kind string")
	}
}

func TestQuickRingChronology(t *testing.T) {
	// Property: retained events are always in emission order, newest
	// last, at most cap of them.
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		s := sim.New(1)
		l := New(s, capacity)
		l.Enable()
		total := int(n)
		for i := 0; i < total; i++ {
			l.Emit("n", KindPacketTX, "i=%d", i)
		}
		evs := l.Events("")
		want := total
		if want > capacity {
			want = capacity
		}
		if len(evs) != want {
			return false
		}
		for j := 1; j < len(evs); j++ {
			if evs[j].Detail <= evs[j-1].Detail && len(evs[j].Detail) == len(evs[j-1].Detail) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
