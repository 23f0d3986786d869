package trace

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"blemesh/internal/sim"
)

// TestShardMergeRestoresChronology checks that a cross-node query merges the
// per-node rings back into the exact global emission order, including events
// sharing one sim instant.
func TestShardMergeRestoresChronology(t *testing.T) {
	s := sim.New(1)
	l := New(s, 64)
	l.Enable()
	nodes := []string{"a", "b", "c", "d"}
	const total = 100
	for i := 0; i < total; i++ {
		l.Add(nodes[i%len(nodes)], 0, 0, seqRec(i))
	}
	if l.Shards() != len(nodes) {
		t.Fatalf("shards=%d, want %d", l.Shards(), len(nodes))
	}
	evs := l.Events("")
	if len(evs) != total {
		t.Fatalf("retained %d, want %d", len(evs), total)
	}
	for i, e := range evs {
		if seqOf(e) != i {
			t.Fatalf("event %d out of order: %q", i, e.Detail())
		}
	}
	// Per-node queries keep per-node order without a merge.
	for ni, n := range nodes {
		for j, e := range l.Events(n) {
			if want := j*len(nodes) + ni; seqOf(e) != want || e.Node != n {
				t.Fatalf("node %s event %d: %s %q (want %d)", n, j, e.Node, e.Detail(), want)
			}
		}
	}
}

// TestShardWrapPerNode checks that eviction is per node: one chatty node
// wrapping its ring must not evict a quiet node's history.
func TestShardWrapPerNode(t *testing.T) {
	s := sim.New(1)
	l := New(s, 8)
	l.Enable()
	l.Add("quiet", 0, 0, ConnOpen(0x0a0b0c0d0e0f, RoleSubordinate, sim.Second))
	for i := 0; i < 100; i++ {
		l.Add("chatty", 0, 0, seqRec(i))
	}
	if got := l.Events("quiet"); len(got) != 1 || got[0].Kind != KindConnOpen {
		t.Fatalf("chatty node evicted quiet node's event: %+v", got)
	}
	ch := l.Events("chatty")
	if len(ch) != 8 {
		t.Fatalf("chatty retained %d, cap 8", len(ch))
	}
	if seqOf(ch[0]) != 92 || seqOf(ch[7]) != 99 {
		t.Fatalf("chatty ring order: %v .. %v", ch[0].Detail(), ch[7].Detail())
	}
	// The merged view holds the quiet event plus the chatty tail, in order.
	all := l.Events("")
	if len(all) != 9 || all[0].Node != "quiet" || seqOf(all[8]) != 99 {
		t.Fatalf("merged view wrong: %d events, %v .. %v", len(all), all[0], all[len(all)-1])
	}
}

// TestShardLazyGrowth checks that shard rings start at one chunk and grow
// one chunk at a time to what was actually emitted, not to the configured
// capacity, and that growing keeps every record where it was.
func TestShardLazyGrowth(t *testing.T) {
	s := sim.New(1)
	l := New(s, 1<<20)
	l.Enable()
	for i := 0; i < 10; i++ {
		l.Add("n", 0, 0, seqRec(i))
	}
	sh := l.shards["n"]
	if len(sh.chunks) != 1 || sh.size != chunkLen {
		t.Fatalf("10 events grew the ring to %d chunks, %d records; want one chunk of %d", len(sh.chunks), sh.size, chunkLen)
	}
	for i := 10; i < chunkLen+1; i++ {
		l.Add("n", 0, 0, seqRec(i))
	}
	if len(sh.chunks) != 2 || sh.size != 2*chunkLen {
		t.Fatalf("after %d events the ring has %d chunks, %d records; want 2, %d", chunkLen+1, len(sh.chunks), sh.size, 2*chunkLen)
	}
	got := l.Events("n")
	if len(got) != chunkLen+1 {
		t.Fatalf("retained %d across growth", len(got))
	}
	for i, e := range got {
		if seqOf(e) != i {
			t.Fatalf("record %d moved across growth: %q", i, e.Detail())
		}
	}
}

// TestSamplingKeepRate checks the realized keep rate over a large ID
// population tracks the configured rate.
func TestSamplingKeepRate(t *testing.T) {
	s := sim.New(1)
	l := New(s, 16)
	l.Enable()
	for _, rate := range []float64{0.01, 0.1, 0.5} {
		l.SetSampleRate(rate)
		kept := 0
		const n = 200_000
		for i := 1; i <= n; i++ {
			if l.KeepPkt(uint64(i)) {
				kept++
			}
		}
		got := float64(kept) / n
		if math.Abs(got-rate) > 0.01 {
			t.Fatalf("rate %.2f: realized %.4f, off by more than 0.01", rate, got)
		}
	}
	l.SetSampleRate(0)
	if l.Sampling() || !l.KeepPkt(12345) || l.SampleRate() != 1 {
		t.Fatal("rate 0 must disable sampling")
	}
	l.SetSampleRate(1)
	if l.Sampling() || !l.KeepPkt(12345) {
		t.Fatal("rate 1 must disable sampling")
	}
}

// TestSamplingKeepsWholeJourneys checks the core sampling invariant: a kept
// packet retains every one of its events at every node, a dropped packet
// retains none, and untagged events always survive.
func TestSamplingKeepsWholeJourneys(t *testing.T) {
	s := sim.New(1)
	l := New(s, 1024)
	l.Enable()
	l.SetSampleRate(0.3)
	nodes := []string{"src", "relay", "dst"}
	const pkts = 500
	keptIDs := make(map[uint64]bool)
	for i := 1; i <= pkts; i++ {
		id := uint64(i)
		if l.DecidePkt("src", id) {
			keptIDs[id] = true
		}
		for _, n := range nodes {
			l.Add(n, id, 0, seqRec(i))
		}
	}
	l.Add("src", 0, 0, ConnOpen(0x0a0b0c0d0e0f, RoleCoordinator, sim.Second))
	if int(l.PktKept()) != len(keptIDs) || l.PktKept()+l.PktDropped() != pkts {
		t.Fatalf("decision counters: kept=%d dropped=%d, want %d total", l.PktKept(), l.PktDropped(), pkts)
	}
	for i := 1; i <= pkts; i++ {
		id := uint64(i)
		evs := l.EventsByID(id)
		if keptIDs[id] && len(evs) != len(nodes) {
			t.Fatalf("kept packet %d retained %d/%d events", id, len(evs), len(nodes))
		}
		if !keptIDs[id] && len(evs) != 0 {
			t.Fatalf("dropped packet %d leaked %d events", id, len(evs))
		}
	}
	if got := l.Events("", KindConnOpen); len(got) != 1 {
		t.Fatal("untagged event must survive sampling")
	}
}

// TestSamplingDecisionIsPure checks the keep decision is a pure function of
// the ID — stable across calls and across independent logs.
func TestSamplingDecisionIsPure(t *testing.T) {
	s := sim.New(1)
	a, b := New(s, 16), New(s, 16)
	a.SetSampleRate(0.25)
	b.SetSampleRate(0.25)
	for i := uint64(1); i < 5000; i++ {
		if a.KeepPkt(i) != b.KeepPkt(i) || a.KeepPkt(i) != a.KeepPkt(i) {
			t.Fatalf("keep decision for %d is not pure", i)
		}
	}
}

// TestSampledExportDeterministic checks a sampled log's NDJSON export is
// byte-identical across two identical emission sequences, shard merge and
// all.
func TestSampledExportDeterministic(t *testing.T) {
	emit := func() *Log {
		s := sim.New(1)
		l := New(s, 64)
		l.Enable()
		l.SetSampleRate(0.5)
		for i := 1; i <= 200; i++ {
			l.Add(fmt.Sprintf("n%d", i%5), uint64(i), 0, seqRec(i))
		}
		return l
	}
	var x, y bytes.Buffer
	if err := emit().WriteNDJSON(&x); err != nil {
		t.Fatal(err)
	}
	if err := emit().WriteNDJSON(&y); err != nil {
		t.Fatal(err)
	}
	if x.Len() == 0 || !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("sampled export not byte-identical across identical runs")
	}
}
