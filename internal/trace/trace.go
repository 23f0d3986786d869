// Package trace is the platform's event logging facility, the analogue of
// the paper's §4.2 instrumentation: RIOT dumped carefully ordered,
// size-limited event records to each node's STDIO, and the experiment
// framework parsed those logs into every figure. Here, subsystems emit
// typed events into per-node bounded ring buffers; experiments and tools
// can filter, render, and export them.
//
// Beyond plain events, the log is the platform's flight recorder: every
// application packet carries a provenance ID (minted at its UDP/ICMP
// origin) through 6LoWPAN compression, L2CAP segmentation, and the BLE
// link layer, and the layers emit ID-tagged span events (pkt-tx, ll-ready,
// ll-tx, ll-rx, pkt-fwd, pkt-rx, pkt-drop). Journeys() reassembles those
// into per-hop latency decompositions.
//
// Recording is off by default and costs one branch per event when disabled.
package trace

import (
	"fmt"
	"sort"

	"blemesh/internal/sim"
)

// Kind classifies events, mirroring the paper's log record types.
type Kind uint8

// Event kinds.
const (
	KindConnOpen Kind = iota
	KindConnLoss
	KindConnEvent
	KindEventSkipped
	KindPacketTX
	KindPacketRX
	KindPacketDrop
	KindCoAPRequest
	KindCoAPResponse
	KindReconnect
	KindParamUpdate
	// KindPacketFwd marks a packet routed onward by an intermediate node;
	// it closes one hop of a provenance journey and opens the next.
	KindPacketFwd
	// KindLLReady marks a tagged payload reaching the head of a BLE
	// connection's LL transmit queue (eligible for the next event).
	KindLLReady
	// KindLLTx marks one LL transmission attempt of a tagged payload
	// (Dur = airtime); retransmissions emit it again with a higher try.
	KindLLTx
	// KindLLRx marks the receiver-side delivery of a tagged LL payload
	// (Dur = airtime of the delivering PDU).
	KindLLRx
	// KindRPLCtrl marks a routing control-plane message (DIO/DAO/DIS)
	// sent or received; sends carry the packet's provenance ID so control
	// traffic shows up in journey reconstructions.
	KindRPLCtrl
	// KindRPLRank marks a node's DODAG rank change (join, parent switch,
	// detach). The selfheal experiment replays these into per-node rank
	// timelines for the monotone-rank loop check.
	KindRPLRank
	numKinds
)

var kindNames = [numKinds]string{
	"conn-open", "conn-loss", "conn-event", "event-skipped",
	"pkt-tx", "pkt-rx", "pkt-drop", "coap-req", "coap-rsp",
	"reconnect", "param-update",
	"pkt-fwd", "ll-ready", "ll-tx", "ll-rx",
	"rpl-ctrl", "rpl-rank",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindByName resolves a kind name ("ll-tx") back to its Kind; ok is false
// for unknown names. CLI filters use this.
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// KindNames lists every kind name in kind order.
func KindNames() []string { return append([]string(nil), kindNames[:]...) }

// Event is one retained record as the log returns it, with its node's
// name. ID is the packet provenance ID for span events (0 = untagged); Dur
// carries a span length where one applies (airtime for ll-tx/ll-rx, RTT for
// coap-rsp). The record's typed fields render as Detail, like the paper's
// character-budgeted STDIO records; Cause and Rank read them back.
type Event struct {
	At   sim.Time
	Node string
	Kind Kind
	ID   uint64
	Dur  sim.Duration

	r    Rec    // the ring record: typed fields, and the emission sequence
	text string // an EmitPkt event's formatted text
}

func (e Event) String() string {
	if e.ID != 0 {
		return fmt.Sprintf("%12.6f %-12s %-13s %016x %s", e.At.Seconds(), e.Node, e.Kind, e.ID, e.Detail())
	}
	return fmt.Sprintf("%12.6f %-12s %-13s %s", e.At.Seconds(), e.Node, e.Kind, e.Detail())
}

// hasText reports whether the event's Detail is EmitPkt's text rather than
// a rendering of typed fields.
func (e *Event) hasText() bool { return e.r.op == opText }

// Log is the flight recorder of one simulation: per-node bounded ring
// buffers (shards) sharing one global sequence counter. Sharding keeps
// recording O(1) per event with no cross-node contention for capacity —
// a chatty border router can no longer evict a quiet leaf's history — and
// shards grow lazily, one fixed chunk at a time up to the per-shard
// capacity, so an armed log costs memory proportional to what was actually
// emitted, not nodes × capacity. Export paths merge shards
// deterministically on the global sequence. The zero Log is disabled;
// Enable arms it.
type Log struct {
	s      *sim.Sim
	cap    int // per-shard event capacity
	shards map[string]*shard
	armed  bool

	// siteSeq holds one sequence counter per site (scheduler domain). Each
	// site counts its own emissions so recording stays write-local to the
	// emitting domain; events carry site<<48|counter and exports merge on
	// (At, seq), which reduces to the historical pure-seq order — one
	// global emission sequence — when there is one site.
	siteSeq []uint64

	// frozen refuses lazy ring creation: on a network of several sites
	// every emitter is registered up front (RegisterNode) so recording
	// never mutates the ring map from a worker goroutine.
	frozen bool

	// Packet sampling: when armed (rate in (0,1)), provenance-tagged
	// events are kept only for sampled packet IDs. The decision is a pure
	// hash of the ID, so every layer of a kept packet's journey survives
	// and Journeys/Decompose still tile exactly for the kept population.
	sampleOn     bool
	sampleRate   float64
	sampleThresh uint64 // keep iff mix64(id)>>11 < thresh (53-bit space)
	pktKept      uint64 // minted IDs decided keep, unregistered nodes
	pktDropped   uint64 // minted IDs decided drop, unregistered nodes
}

// shard is one node's ring. It grows by one chunk of chunkLen records at a
// time up to max, then wraps, so short runs never pay worst-case capacity
// and growing never copies. text holds EmitPkt's formatted texts beside the
// chunks they belong to, allocated only for a chunk that has one. sim/site
// bind the ring to its owner's clock and domain on multi-site networks (sim
// nil = use the Log's); kept/dropped count sampling verdicts ring-locally so
// DecidePkt stays free of cross-domain writes.
type shard struct {
	name    string
	chunks  [][]Rec
	text    [][]string
	size    int // records allocated over all chunks
	next    int
	wrapped bool
	max     int

	sim     *sim.Sim
	site    int
	kept    uint64
	dropped uint64
}

// chunkLen is the number of records a ring grows by: 16 KiB of them.
const chunkLen = 256

func (sh *shard) at(i int) *Rec { return &sh.chunks[i/chunkLen][i%chunkLen] }

func (sh *shard) put(r *Rec, text string) {
	if sh.next == sh.size {
		// Full below the bound (a wrapped ring never parks next at size):
		// one more chunk, the last one cut to the bound.
		n := min(chunkLen, sh.max-sh.size)
		sh.chunks = append(sh.chunks, make([]Rec, n))
		sh.size += n
	}
	c, i := sh.next/chunkLen, sh.next%chunkLen
	sh.chunks[c][i] = *r
	if r.op == opText {
		for len(sh.text) <= c {
			sh.text = append(sh.text, nil)
		}
		if sh.text[c] == nil {
			sh.text[c] = make([]string, len(sh.chunks[c]))
		}
		sh.text[c][i] = text
	} else if c < len(sh.text) && sh.text[c] != nil {
		sh.text[c][i] = "" // the slot's old text is evicted with it
	}
	sh.next++
	if sh.next == sh.max {
		sh.next = 0
		sh.wrapped = true
	}
}

// retained appends the shard's events of the kinds in mask (0 = all) in
// emission order.
func (sh *shard) retained(mask uint32, out []Event) []Event {
	emit := func(i int) {
		r := sh.at(i)
		if mask != 0 && mask&(1<<uint(r.kind)) == 0 {
			return
		}
		e := Event{At: r.at, Node: sh.name, Kind: r.kind, ID: r.id, Dur: r.dur, r: *r}
		if r.op == opText {
			e.text = sh.text[i/chunkLen][i%chunkLen]
		}
		out = append(out, e)
	}
	if sh.wrapped {
		for i := sh.next; i < sh.size; i++ {
			emit(i)
		}
	}
	for i := 0; i < sh.next; i++ {
		emit(i)
	}
	return out
}

// New creates a log bound to a simulation with the given per-shard
// capacity (default 65536 events per node).
func New(s *sim.Sim, capacity int) *Log {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Log{s: s, cap: capacity, shards: make(map[string]*shard), siteSeq: make([]uint64, 1)}
}

// RegisterNode pre-creates node's ring, bound to the given simulation clock
// and site. Multi-site networks register every emitter up front and then
// Freeze the log, so recording from parallel domain windows touches only
// site-local state (the ring and its site's sequence counter).
func (l *Log) RegisterNode(node string, s *sim.Sim, site int) {
	if site < 0 {
		panic("trace: negative site")
	}
	if l.shards == nil {
		l.shards = make(map[string]*shard)
	}
	for len(l.siteSeq) <= site {
		l.siteSeq = append(l.siteSeq, 0)
	}
	if sh := l.shards[node]; sh != nil {
		sh.sim, sh.site = s, site
		return
	}
	l.shards[node] = &shard{name: node, max: l.cap, sim: s, site: site}
}

// Freeze forbids lazy ring creation: after this, emitting under an
// unregistered node name panics instead of growing the ring map. A network
// of several sites freezes after registering all nodes, whatever its lane
// count; a single-site network, whose one clock is the log's own, never does.
func (l *Log) Freeze() { l.frozen = true }

// Enabled reports whether the log records anything. This is the one branch
// every instrumentation site pays when recording is off.
func (l *Log) Enabled() bool { return l != nil && l.armed }

// Keeps reports whether an event tagged with packet id would be recorded:
// the log is armed and the packet is untagged (id 0) or sampled in. Tagged
// emit sites test this instead of Enabled, so an event the sampler is about
// to drop costs one hash and its fields are never gathered.
func (l *Log) Keeps(id uint64) bool {
	return l != nil && l.armed && (id == 0 || l.KeepPkt(id))
}

// Enable starts recording. Idempotent. Shard buffers are allocated lazily
// as nodes emit.
func (l *Log) Enable() {
	if l.shards == nil {
		l.shards = make(map[string]*shard)
	}
	l.armed = true
}

// Add records one typed event — a record built by one of the constructors
// of record.go — for node, tagged with packet id (0 = untagged) and spanning
// dur. A nil or disabled log, or a sampled-out id, drops it; the
// fields came by value, so even then nothing was boxed or allocated.
func (l *Log) Add(node string, id uint64, dur sim.Duration, r Rec) {
	if !l.Enabled() {
		return
	}
	l.record(node, id, dur, &r, "", nil)
}

// EmitPkt records a provenance-tagged span event whose detail is formatted
// text, kept beside its ring slot and evicted with it. A disabled log drops
// it before formatting. The simulator's own layers call
// Add instead; EmitPkt remains for callers outside them.
func (l *Log) EmitPkt(node string, kind Kind, id uint64, dur sim.Duration, format string, args ...any) {
	if !l.Enabled() {
		return
	}
	l.record(node, id, dur, &Rec{kind: kind, op: opText}, format, args)
}

func (l *Log) record(node string, id uint64, dur sim.Duration, r *Rec, format string, args []any) {
	if id != 0 && !l.KeepPkt(id) {
		return // sampled-out packet: drop its whole journey, every layer
	}
	sh := l.shards[node]
	if sh == nil {
		if l.frozen {
			panic("trace: emit from unregistered node " + node + " on a frozen log")
		}
		sh = &shard{name: node, max: l.cap}
		l.shards[node] = sh
	}
	text := format
	if len(args) > 0 {
		text = fmt.Sprintf(format, args...)
	}
	clock := sh.sim
	if clock == nil {
		clock = l.s
	}
	seq := l.siteSeq[sh.site]
	l.siteSeq[sh.site] = seq + 1
	r.at, r.seq, r.id, r.dur = clock.Now(), uint64(sh.site)<<48|seq, id, dur
	sh.put(r, text)
}

// Total returns the number of events ever recorded (including evicted ones).
func (l *Log) Total() uint64 {
	var n uint64
	for _, c := range l.siteSeq {
		n += c
	}
	return n
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijection of
// packet IDs onto uniform 64-bit hashes, so the sampling decision is a pure
// function of the ID — independent of node, layer, and emission time.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SetSampleRate arms packet sampling: provenance-tagged events are kept
// only for roughly a rate fraction of packet IDs. Rates ≤0 or ≥1 disable
// sampling (keep everything). The decision hashes the ID into a 53-bit
// space, so it is exact for representable rates and deterministic across
// runs, workers, and scheduler backends.
func (l *Log) SetSampleRate(rate float64) {
	if rate <= 0 || rate >= 1 {
		l.sampleOn = false
		l.sampleRate = 1
		l.sampleThresh = 0
		return
	}
	l.sampleOn = true
	l.sampleRate = rate
	l.sampleThresh = uint64(float64(rate * (1 << 53)))
}

// Sampling reports whether packet sampling is armed.
func (l *Log) Sampling() bool { return l != nil && l.sampleOn }

// SampleRate returns the configured keep rate (1 when sampling is off).
func (l *Log) SampleRate() float64 {
	if l == nil || !l.sampleOn {
		return 1
	}
	return l.sampleRate
}

// KeepPkt reports whether events tagged with this packet ID are retained
// under the current sampling policy. Pure: same ID, same answer, at every
// layer of the stack.
func (l *Log) KeepPkt(id uint64) bool {
	if !l.sampleOn {
		return true
	}
	return mix64(id)>>11 < l.sampleThresh
}

// DecidePkt records the sampling verdict for a freshly minted packet ID and
// returns it. The origin stack calls this once per mint so kept/dropped
// population counts stay exact even though dropped packets leave no events.
// The verdict is counted on the minting node's ring when one is registered,
// keeping the write local to the node's domain on multi-site networks.
func (l *Log) DecidePkt(node string, id uint64) bool {
	keep := l.KeepPkt(id)
	if sh := l.shards[node]; sh != nil {
		if keep {
			sh.kept++
		} else {
			sh.dropped++
		}
		return keep
	}
	if keep {
		l.pktKept++
	} else {
		l.pktDropped++
	}
	return keep
}

// PktKept returns how many minted packet IDs were decided keep.
func (l *Log) PktKept() uint64 {
	n := l.pktKept
	for _, sh := range l.shards {
		n += sh.kept
	}
	return n
}

// PktDropped returns how many minted packet IDs were decided drop.
func (l *Log) PktDropped() uint64 {
	n := l.pktDropped
	for _, sh := range l.shards {
		n += sh.dropped
	}
	return n
}

// Shards returns the number of per-node rings currently allocated.
func (l *Log) Shards() int {
	if l == nil {
		return 0
	}
	return len(l.shards)
}

// Events returns the retained events in chronological order, optionally
// filtered by kind and node (empty selectors match everything). Cross-node
// queries merge the per-node shards on the global sequence number, which
// restores the exact emission chronology deterministically.
func (l *Log) Events(node string, kinds ...Kind) []Event {
	if l == nil || len(l.shards) == 0 {
		return nil
	}
	var mask uint32
	for _, k := range kinds {
		mask |= 1 << uint(k)
	}
	if node != "" {
		sh := l.shards[node]
		if sh == nil {
			return nil
		}
		return sh.retained(mask, nil)
	}
	if len(l.shards) == 1 {
		for _, sh := range l.shards {
			return sh.retained(mask, nil)
		}
	}
	var out []Event
	for _, sh := range l.shards {
		out = sh.retained(mask, out)
	}
	// Merge on (At, seq): per-site sequence streams are only ordered
	// against each other by timestamp; within a site (and on any single-site
	// network) the sequence alone restores the exact emission chronology.
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].r.seq < out[j].r.seq
	})
	return out
}

// EventsByID returns the retained events carrying the provenance ID, in
// chronological order.
func (l *Log) EventsByID(id uint64) []Event {
	var out []Event
	for _, e := range l.Events("") {
		if e.ID == id {
			out = append(out, e)
		}
	}
	return out
}

// CountByKind tallies retained events per kind.
func (l *Log) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range l.Events("") {
		out[e.Kind]++
	}
	return out
}

// DropCauses tallies retained pkt-drop events by cause name — the
// drop-cause table of the trace tooling. EmitPkt's text events carry no
// cause and are not counted.
func (l *Log) DropCauses() map[string]int {
	out := make(map[string]int)
	for _, e := range l.Events("", KindPacketDrop) {
		if c := e.Cause(); c != 0 {
			out[c.String()]++
		}
	}
	return out
}
