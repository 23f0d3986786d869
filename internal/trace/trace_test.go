package trace

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"blemesh/internal/sim"
)

// seqRec is a typed record numbered i; seqOf reads the number back.
func seqRec(i int) Rec  { return PktTX([16]byte{}, i) }
func seqOf(e Event) int { return int(e.r.n[0]) }

func TestDisabledLogIsCheapAndEmpty(t *testing.T) {
	s := sim.New(1)
	l := New(s, 16)
	l.Add("n1", 0, 0, seqRec(1))
	if l.Enabled() || l.Total() != 0 || len(l.Events("")) != 0 {
		t.Fatal("disabled log recorded something")
	}
	var nilLog *Log
	nilLog.Add("n1", 0, 0, seqRec(1))
	if nilLog.Enabled() {
		t.Fatal("nil log enabled")
	}
}

func TestEmitAndQuery(t *testing.T) {
	s := sim.New(1)
	l := New(s, 16)
	l.Enable()
	s.At(sim.Second, func() { l.Add("n1", 0, 0, ConnOpen(0x0a0b0c0d0e0f, RoleCoordinator, 75*sim.Millisecond)) })
	s.At(2*sim.Second, func() { l.Add("n2", 0, 0, ConnLoss(0x0a0b0c0d0e0f, LossSupervision)) })
	s.Run(10 * sim.Second)
	all := l.Events("")
	if len(all) != 2 {
		t.Fatalf("events: %d", len(all))
	}
	if all[0].Kind != KindConnOpen || all[0].At != sim.Second || all[0].Detail() != "peer=0a:0b:0c:0d:0e:0f role=coordinator itvl=75.000ms" {
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
		l.Add("n", 0, 0, seqRec(i))
	}
	evs := l.Events("")
	if len(evs) != 8 {
		t.Fatalf("retained %d, cap 8", len(evs))
	}
	if seqOf(evs[0]) != 12 || seqOf(evs[7]) != 19 {
		t.Fatalf("eviction order wrong: %v .. %v", evs[0].Detail(), evs[7].Detail())
	}
	if l.Total() != 20 {
		t.Fatalf("total=%d", l.Total())
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
			l.Add("n", 0, 0, seqRec(i))
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
			if seqOf(evs[j]) != seqOf(evs[j-1])+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// everyRec builds one record of every constructor, as the emit sites call
// them.
var everyRec = []func() Rec{
	func() Rec { return ConnOpen(0x0a0b0c0d0e0f, RoleSubordinate, 75*sim.Millisecond) },
	func() Rec { return ConnLoss(0x0a0b0c0d0e0f, LossSupervision) },
	func() Rec { return EventSkipped(3, 1<<40, 2) },
	func() Rec { return PktTX([16]byte{0: 0xfd}, 100) },
	func() Rec { return PktRX([16]byte{0: 0xfd}, 100) },
	func() Rec { return PktLoopback([16]byte{0: 0xfd}) },
	func() Rec { return PktFwd([16]byte{0: 0xfd}, 63) },
	func() Rec { return Drop(CauseQueueFull, [16]byte{0: 0xfd}) },
	func() Rec { return DropLinkDown(0x0a0b0c0d0e0f) },
	func() Rec { return DropLinkReset(3) },
	func() Rec { return DropConnLost(3, LossHostTerminated) },
	func() Rec { return CoAPReq([16]byte{0: 0xfd}, 9, 2) },
	func() Rec { return CoAPRsp([16]byte{0: 0xfd}, 9) },
	func() Rec { return CoAPFail(CoAPGaveUp) },
	func() Rec { return LLReady(3, 4) },
	func() Rec { return LLTx(3, 36, 1, 27) },
	func() Rec { return LLRx(3, 36, 27) },
	func() Rec { return RPLRx(1, 0x0a0b0c0d0e0f, 512) },
	func() Rec { return RPLTx(2, 0x0a0b0c0d0e0f, 512) },
	func() Rec { return RPLRank(768, 0x0a0b0c0d0e0f, RankParentTimeout) },
}

// TestDisabledTraceDoesNotAllocate pins what the typed entry point costs:
// nothing on a nil or disabled log or for a sampled-out packet, and nothing
// for a kept event that lands in a chunk with room.
func TestDisabledTraceDoesNotAllocate(t *testing.T) {
	var nilLog *Log
	off := New(sim.New(1), 0)
	sampled := New(sim.New(1), 0)
	sampled.Enable()
	sampled.SetSampleRate(0.5)
	var out uint64 = 1
	for sampled.KeepPkt(out) {
		out++
	}
	for i, mk := range everyRec {
		on := New(sim.New(1), 0)
		on.Enable()
		on.Add("n", 7, 0, mk()) // the ring's first chunk
		for _, c := range []struct {
			name string
			l    *Log
			id   uint64
		}{{"nil", nilLog, 7}, {"disabled", off, 7}, {"sampled-out", sampled, out}, {"kept", on, 7}} {
			if n := testing.AllocsPerRun(50, func() { c.l.Add("n", c.id, sim.Microsecond, mk()) }); n != 0 {
				t.Errorf("record %d (%s), %s log: %.1f allocations per event", i, mk().kind, c.name, n)
			}
		}
		if got := on.Total(); got != 52 {
			t.Fatalf("record %d: kept log recorded %d events, want 52", i, got)
		}
	}
}

// TestTraceRecordIsPointerFree keeps the ring record out of the collector's
// scan set and inside 64 bytes: no field, however nested, may hold a pointer.
func TestTraceRecordIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("Rec%s is a %s", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("", reflect.TypeOf(Rec{}))
	if n := unsafe.Sizeof(Rec{}); n > 64 {
		t.Errorf("Rec is %d B, want ≤ 64", n)
	}
}

// TestTraceRingBytes bounds a ring's memory by what it retains: at most one
// partly filled chunk beyond the retained records, whatever the capacity.
func TestTraceRingBytes(t *testing.T) {
	recBytes := int(unsafe.Sizeof(Rec{}))
	for _, capacity := range []int{8, 300, 1 << 16} {
		for _, n := range []int{1, 255, 256, 257, 1000, 5000} {
			l := New(sim.New(1), capacity)
			l.Enable()
			for i := 0; i < n; i++ {
				l.Add("n", 0, 0, seqRec(i))
			}
			sh := l.shards["n"]
			bytes := 0
			for _, c := range sh.chunks {
				bytes += cap(c) * recBytes
			}
			retained := len(l.Events("n"))
			if want := min(n, capacity); retained != want {
				t.Fatalf("cap %d, %d events: retained %d, want %d", capacity, n, retained, want)
			}
			if bytes > 64*(retained+chunkLen) || bytes > capacity*recBytes {
				t.Errorf("cap %d, %d events: ring holds %d B for %d records", capacity, n, bytes, retained)
			}
		}
	}
}
