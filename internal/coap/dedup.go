package coap

import (
	"blemesh/internal/ip6"
	"blemesh/internal/ring"
	"blemesh/internal/sim"
)

// dedupWindow is how long a served (peer, MID) pair is remembered. It
// deliberately undercuts RFC 7252's NON_LIFETIME and EXCHANGE_LIFETIME; see
// DESIGN.md §3 "CoAP deduplication".
const dedupWindow = 60 * sim.Second

// remembered is the one predicate of the cache: a sighting made at `at`
// still suppresses a repeat at `now`. Expiry is its negation.
func remembered(at, now sim.Time) bool { return now-at < dedupWindow }

// sighting is one served request: its packed key and when it was served.
type sighting struct {
	key uint64
	at  sim.Time
}

// dedup is the endpoint's duplicate-request cache. Keys are a dense peer
// index and the MID packed into a uint64, so the request path neither
// formats nor allocates. Sightings are queued in arrival order, which is
// time order, so the expired ones are exactly a prefix of the queue and
// leave from its head in amortised O(1). Every live key sits in the queue
// once: len(seen) == order.Len().
//
// Peer indices are forgotten only when a reboot drops the whole cache: the
// table is bounded by the number of nodes that ever sent this endpoint a
// request.
type dedup struct {
	peers map[ip6.Addr]uint32
	seen  map[uint64]struct{}
	order ring.Ring[sighting]
}

func newDedup() *dedup {
	return &dedup{peers: make(map[ip6.Addr]uint32), seen: make(map[uint64]struct{})}
}

// duplicate reports whether (src, mid) was served less than dedupWindow ago,
// and records the sighting when it was not.
func (d *dedup) duplicate(src ip6.Addr, mid uint16, now sim.Time) bool {
	for d.order.Len() > 0 && !remembered(d.order.Front().at, now) {
		delete(d.seen, d.order.Pop().key)
	}
	peer, known := d.peers[src]
	if !known {
		peer = uint32(len(d.peers))
		d.peers[src] = peer
	}
	key := uint64(peer)<<16 | uint64(mid)
	// One map operation decides and records: an insert that leaves the set
	// the same size found the key already in it.
	live := len(d.seen)
	d.seen[key] = struct{}{}
	if len(d.seen) == live {
		return true
	}
	d.order.Push(sighting{key: key, at: now})
	return false
}
