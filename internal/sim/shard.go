package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Sharded is a conservative parallel discrete-event scheduler: K domain
// simulations, each with its own event queue, local clock, sequence stream
// and random source, advanced in lockstep over barrier-delimited windows
// (an LBTS-style protocol collapsed to a single synchronization point).
//
// Domains must be causally independent within a window: an event in domain
// A may not observe or mutate state owned by domain B except through
// PostCross, whose delivery is deferred to the next barrier and delayed by
// at least the configured lookahead. Under that contract each domain's
// event sequence is a pure function of its own queue, so the observable
// output is byte-identical no matter how many worker goroutines execute the
// windows — the same guarantee the parallel sweep runner gives across
// worker counts, applied inside a single run.
//
// The lookahead is derived from the physical layer being modelled: a
// cross-domain BLE packet handed off at local time T cannot be delivered
// before T plus its minimum airtime (80µs for an empty LL PDU at 1M PHY),
// and domains coupled only through connection-oriented links cannot
// interact faster than the connection interval (≥7.5ms). Domains that
// share an RF medium have zero lookahead — carrier sensing observes a
// transmission at its start instant — which is why the network layer cuts
// domains along RF-isolation boundaries and runs them with lookahead 0
// (cross posts disabled, windows bounded only by global events and the
// horizon).
//
// A separate global lane holds events that must observe every domain at a
// consistent time (periodic samplers, metric streaming, fault injection).
// Each window runs every domain inclusive to the window end E = min(horizon,
// now+lookahead, next global event time); at the barrier, cross-domain mail
// is merged deterministically by (deliver time, sender domain, sender
// sequence) and global events due at E fire while all domain clocks sit
// exactly at E.
type Sharded struct {
	shards []*Sim
	global *Sim
	look   Duration
	now    Time

	workers int
	stopped bool

	// outbox holds cross-domain events accumulated during the current
	// window, one slice per sender domain so concurrent senders never
	// share a slice. Drained and merged at each barrier.
	outbox [][]crossEvent
}

// crossEvent is a cross-domain handoff waiting at the barrier.
type crossEvent struct {
	at   Time // delivery time: sender-local send time + max(delay, lookahead)
	from int  // sender domain, second merge key
	seq  uint64
	to   int
	fn   func()
}

// NewSharded creates a sharded scheduler with the given number of domains.
// Domain 0's random source is seeded with seed itself, so a single-domain
// sharded run draws the exact stream a plain New(seed) Sim would; further
// domains and the global lane get independent streams mixed from the seed.
// engine selects the event queue backing each domain and the global lane.
// lookahead is the minimum cross-domain latency enforced by PostCross; pass
// 0 when domains are fully isolated and cross posts are not used.
func NewSharded(seed int64, engine Engine, domains int, lookahead Duration) *Sharded {
	if domains < 1 {
		domains = 1
	}
	sh := &Sharded{look: lookahead, workers: 1}
	sh.shards = make([]*Sim, domains)
	for d := range sh.shards {
		sh.shards[d] = NewWithEngine(domainSeed(seed, d), engine)
	}
	sh.global = NewWithEngine(domainSeed(seed, domains), engine)
	sh.outbox = make([][]crossEvent, domains)
	return sh
}

// domainSeed derives the per-domain RNG seed. Domain 0 keeps the user seed
// verbatim (byte-compatibility with serial runs); the rest are decorrelated
// with a splitmix64-style mix so adjacent domains don't draw shifted copies
// of the same stream.
func domainSeed(seed int64, d int) int64 {
	if d == 0 {
		return seed
	}
	z := uint64(seed) + uint64(d)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Domains returns the number of domain simulations.
func (sh *Sharded) Domains() int { return len(sh.shards) }

// Shard returns domain d's simulation. All state owned by the domain must
// be driven exclusively through this Sim.
func (sh *Sharded) Shard(d int) *Sim { return sh.shards[d] }

// Global returns the barrier-synchronized global lane. Events scheduled
// here observe every domain clock at exactly the event's timestamp.
func (sh *Sharded) Global() *Sim { return sh.global }

// Lookahead returns the configured cross-domain lookahead.
func (sh *Sharded) Lookahead() Duration { return sh.look }

// Now returns the barrier time: every domain clock is at least this far.
func (sh *Sharded) Now() Time { return sh.now }

// SetWorkers sets how many goroutines execute domain windows. Values below
// 2 run windows inline on the calling goroutine. The worker count never
// affects observable output, only wall-clock time.
func (sh *Sharded) SetWorkers(k int) {
	if k < 1 {
		k = 1
	}
	sh.workers = k
}

// Workers returns the configured worker count.
func (sh *Sharded) Workers() int { return sh.workers }

// Processed returns the total number of events executed across all domains
// and the global lane.
func (sh *Sharded) Processed() uint64 {
	var n uint64
	for _, s := range sh.shards {
		n += s.Processed()
	}
	return n + sh.global.Processed()
}

// Pending returns the total number of queued events, including undelivered
// cross-domain mail.
func (sh *Sharded) Pending() int {
	n := sh.global.Pending()
	for _, s := range sh.shards {
		n += s.Pending()
	}
	for _, box := range sh.outbox {
		n += len(box)
	}
	return n
}

// Stop makes the current Run return at the next barrier. Safe to call only
// from global-lane events or between Run calls — never from inside a
// domain event, which may be executing on a worker goroutine.
func (sh *Sharded) Stop() { sh.stopped = true }

// PostCross schedules fn on domain to, delay after domain from's local
// clock, clamped up to the lookahead: the delivery can never land inside
// the window the sender is still executing. Delivery order at the receiving
// barrier is deterministic — mail is merged by (delivery time, sender
// domain, per-sender sequence) regardless of worker interleaving. Must be
// called from an event executing on domain from.
func (sh *Sharded) PostCross(from, to int, delay Duration, fn func()) {
	if sh.look <= 0 {
		panic("sim: PostCross requires a sharded scheduler with positive lookahead")
	}
	if fn == nil {
		panic("sim: nil event func")
	}
	if delay < sh.look {
		delay = sh.look
	}
	box := sh.outbox[from]
	sh.outbox[from] = append(box, crossEvent{
		at:   sh.shards[from].Now() + delay,
		from: from,
		seq:  uint64(len(box)),
		to:   to,
		fn:   fn,
	})
}

// Run advances the whole system to until, window by window. Within each
// window domains execute independently (in parallel when workers > 1);
// the window end is the earliest of the horizon, now+lookahead, and the
// next global event. Events a global callback schedules on a domain at the
// barrier instant execute before the next window opens, so a global at
// time G observes — and may extend — a world whose clocks all read G.
func (sh *Sharded) Run(until Time) {
	sh.stopped = false
	for !sh.stopped && sh.now < until {
		end := until
		if sh.look > 0 && sh.now+sh.look < end {
			end = sh.now + sh.look
		}
		gw, gok := sh.global.NextAt()
		if gok && gw < end {
			end = gw
		}
		sh.runWindow(end)
		sh.drainMail()
		if gok && gw <= end {
			sh.global.Run(end)
			// Globals may have scheduled domain events at the barrier
			// instant (fault injection rebooting a node, a sampler kicking
			// a follow-up); run them before the window closes. Domain
			// events never schedule globals, so one pass reaches the
			// fixpoint.
			sh.runWindow(end)
			sh.drainMail()
		}
		sh.now = end
	}
	if sh.global.Now() < sh.now {
		// Keep the global clock at the barrier even when no global fired,
		// so late AttachFault-style scheduling is relative to now.
		sh.global.Run(sh.now)
	}
}

// runWindow advances every domain inclusive to end. With a single worker
// (or a single domain) windows run inline; otherwise each domain runs on
// its own goroutine and the barrier is a WaitGroup. Domains are isolated
// by contract, so the interleaving cannot affect any domain's event order.
func (sh *Sharded) runWindow(end Time) {
	if sh.workers <= 1 || len(sh.shards) == 1 {
		for _, s := range sh.shards {
			s.Run(end)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, sh.workers)
	for _, s := range sh.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(s *Sim) {
			defer func() { <-sem; wg.Done() }()
			s.Run(end)
		}(s)
	}
	wg.Wait()
}

// drainMail merges the window's cross-domain mail into the receiving
// domains. The merge key (delivery time, sender domain, per-sender
// sequence) totally orders the mail independently of execution
// interleaving; destination queues then break remaining ties FIFO by
// insertion, completing the deterministic (time, seq, domain) contract.
func (sh *Sharded) drainMail() {
	var all []crossEvent
	for d := range sh.outbox {
		if len(sh.outbox[d]) == 0 {
			continue
		}
		all = append(all, sh.outbox[d]...)
		sh.outbox[d] = sh.outbox[d][:0]
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		if all[i].from != all[j].from {
			return all[i].from < all[j].from
		}
		return all[i].seq < all[j].seq
	})
	for _, ev := range all {
		if ev.to < 0 || ev.to >= len(sh.shards) {
			panic(fmt.Sprintf("sim: cross event to unknown domain %d", ev.to))
		}
		sh.shards[ev.to].PostAt(ev.at, ev.fn)
	}
}
