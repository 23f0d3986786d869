package sim

import "sync"

// Sharded is a conservative parallel discrete-event scheduler: K domain
// simulations, each with its own event queue, local clock, sequence stream
// and random source, advanced in lockstep over barrier-delimited windows
// (an LBTS-style protocol collapsed to a single synchronization point).
//
// Domains must be causally independent: an event in domain A may not
// observe or mutate state owned by domain B. Under that contract each
// domain's event sequence is a pure function of its own queue, so the
// observable output is byte-identical no matter how many worker goroutines
// execute the windows — the same guarantee the parallel sweep runner gives
// across worker counts, applied inside a single run. The network layer cuts
// domains along RF-isolation boundaries: radios that share a medium have
// zero lookahead — carrier sensing observes a transmission at its start
// instant — so nothing smaller than an RF-closure domain can be a domain,
// and RF-isolated sites never need to talk, so windows are bounded only by
// global events and the horizon.
//
// A separate global lane holds events that must observe every domain at a
// consistent time (periodic samplers, metric streaming, fault injection).
// Each window runs every domain inclusive to the window end E = min(horizon,
// next global event time); global events due at E then fire while all domain
// clocks sit exactly at E.
//
// One domain with an empty global lane is a plain Sim: Run is a single
// window to the horizon, which is how every single-site network runs.
type Sharded struct {
	shards []*Sim
	global *Sim
	now    Time

	workers int
}

// NewSharded creates a sharded scheduler with the given number of domains.
// Domain 0's random source is seeded with seed itself, so a single-domain
// scheduler draws the exact stream a plain New(seed) Sim would; further
// domains and the global lane get independent streams mixed from the seed.
// engine selects the event queue backing each domain and the global lane.
func NewSharded(seed int64, engine Engine, domains int) *Sharded {
	if domains < 1 {
		domains = 1
	}
	sh := &Sharded{workers: 1}
	sh.shards = make([]*Sim, domains)
	for d := range sh.shards {
		sh.shards[d] = NewWithEngine(domainSeed(seed, d), engine)
	}
	sh.global = NewWithEngine(domainSeed(seed, domains), engine)
	return sh
}

// domainSeed derives the per-domain RNG seed. Domain 0 keeps the user seed
// verbatim (a one-domain scheduler is a plain Sim); the rest are decorrelated
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

// Shard returns domain d's simulation. All state owned by the domain must
// be driven exclusively through this Sim.
func (sh *Sharded) Shard(d int) *Sim { return sh.shards[d] }

// Global returns the barrier-synchronized global lane. Events scheduled
// here observe every domain clock at exactly the event's timestamp.
func (sh *Sharded) Global() *Sim { return sh.global }

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

// Processed returns the total number of events executed across all domains
// and the global lane.
func (sh *Sharded) Processed() uint64 {
	var n uint64
	for _, s := range sh.shards {
		n += s.Processed()
	}
	return n + sh.global.Processed()
}

// Run advances the whole system to until, window by window. Within each
// window domains execute independently (in parallel when workers > 1);
// the window end is the earlier of the horizon and the next global event.
// Events a global callback schedules on a domain at the barrier instant
// execute before the next window opens, so a global at time G observes —
// and may extend — a world whose clocks all read G.
func (sh *Sharded) Run(until Time) {
	for sh.now < until {
		end := until
		gw, gok := sh.global.NextAt()
		if gok && gw < end {
			end = gw
		}
		sh.runWindow(end)
		if gok && gw <= end {
			sh.global.Run(end)
			// Globals may have scheduled domain events at the barrier
			// instant (fault injection rebooting a node, a sampler kicking
			// a follow-up); run them before the window closes. Domain
			// events never schedule globals, so one pass reaches the
			// fixpoint.
			sh.runWindow(end)
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
