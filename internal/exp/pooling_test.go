package exp

import (
	"testing"

	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// TestPoolingByteIdentity is the lockdown for the zero-copy pooled datapath:
// with buffer pooling disabled every pktbuf.Get falls back to a fresh
// allocation, so any place where the datapath depends on recycled buffer
// contents (a poisoned read), on buffer identity, or on release timing shows
// up as a divergence. Eight seeds of the dense-tree and churn workloads must
// export byte-identical trace and metrics NDJSON with the pool on and off —
// pooling is a memory optimisation and must never be observable.
func TestPoolingByteIdentity(t *testing.T) {
	defer pktbuf.SetPooling(true)
	for _, wl := range []struct {
		name  string
		churn bool
	}{{"dense-tree", false}, {"churn", true}} {
		t.Run(wl.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				pktbuf.SetPooling(true)
				pooled := engineExport(t, sim.EngineWheel, seed, wl.churn)
				pktbuf.SetPooling(false)
				unpooled := engineExport(t, sim.EngineWheel, seed, wl.churn)
				if pooled == "" {
					t.Fatalf("seed %d: empty export", seed)
				}
				if pooled != unpooled {
					n, g, w := firstDiff(pooled, unpooled)
					t.Fatalf("seed %d: pooling is observable at line %d:\n  pooled:   %s\n  unpooled: %s",
						seed, n, g, w)
				}
			}
		})
	}
}
