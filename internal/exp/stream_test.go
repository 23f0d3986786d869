package exp

import (
	"errors"
	"io"
	"strings"
	"testing"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// fullAfter accepts n bytes, then fails every write.
type fullAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (w *fullAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestStreamErrSurfaces: a sink that fills up ends the stream — the error
// is reported by StreamErr, the tick stops gathering — and the run itself
// is the run a healthy sink sees.
func TestStreamErrSurfaces(t *testing.T) {
	run := func(sink io.Writer) (*Network, *int) {
		nw := BuildNetwork(NetworkConfig{
			Seed:          3,
			Topology:      testbed.Tree(),
			Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
			JamChannel22:  true,
			Trace:         true,
			TraceSample:   0.1,
			StreamMetrics: sink,
			StreamEvery:   5 * sim.Second,
		})
		gathers := new(int)
		nw.Registry.RegisterCounter("test.gathers", func() float64 { *gathers++; return float64(*gathers) })
		nw.WaitTopology(60 * sim.Second)
		nw.StartTraffic(TrafficConfig{})
		nw.Run(60 * sim.Second)
		return nw, gathers
	}
	var healthy strings.Builder
	ok, okGathers := run(&healthy)
	if err := ok.StreamErr(); err != nil {
		t.Fatal(err)
	}
	size := healthy.Len() / *okGathers // bytes per snapshot
	bad, badGathers := run(&fullAfter{n: 3*size + size/2})
	if err := bad.StreamErr(); !errors.Is(err, errDiskFull) {
		t.Fatalf("StreamErr() = %v, want the sink's error", err)
	}
	if *okGathers < 12 || *badGathers != 4 {
		t.Fatalf("healthy run gathered %d times, failing run %d (want ≥ 12 and exactly 4: three snapshots, the failing one, none after)",
			*okGathers, *badGathers)
	}
	if a, b := ok.CoAPPDR(), bad.CoAPPDR(); a != b || a.Sent == 0 {
		t.Fatalf("PDR differs: healthy %+v vs failing sink %+v", a, b)
	}
	// The RTT quantiles too: the healthy run read the CDFs three times as
	// often, and no read changes what a later one returns.
	okRTT, badRTT := ok.MergedRTTs(), bad.MergedRTTs()
	for _, q := range []float64{0.5, 0.99} {
		if a, b := okRTT.Quantile(q), badRTT.Quantile(q); a != b {
			t.Fatalf("RTT q%v differs: healthy %v vs failing sink %v", q, a, b)
		}
	}
	var okTrace, badTrace strings.Builder
	if err := ok.Trace.WriteNDJSON(&okTrace); err != nil {
		t.Fatal(err)
	}
	if err := bad.Trace.WriteNDJSON(&badTrace); err != nil {
		t.Fatal(err)
	}
	if ok.Sim.Now() != bad.Sim.Now() || ok.MergedRTTs().N() != bad.MergedRTTs().N() || ok.ConnLosses() != bad.ConnLosses() ||
		okTrace.Len() == 0 || okTrace.String() != badTrace.String() {
		t.Fatal("a failing metrics sink changed the run")
	}
	if (&Network{}).StreamErr() != nil {
		t.Fatal("StreamErr on a network that does not stream")
	}
}
