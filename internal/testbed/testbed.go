// Package testbed describes the FIT IoT-Lab deployment the paper uses
// (§4.1, Fig. 6): the node inventory (ten nrf52dk and five nrf52840dk
// boards at Saclay for BLE, fifteen m3 boards at Strasbourg for the
// IEEE 802.15.4 comparison), their grid placement, and the two statically
// configured topologies — a tree with maximum depth 3 and average producer
// hop count 2.14, and a 15-node line.
package testbed

import (
	"fmt"
	"math/rand"
	"sort"
)

// Hardware describes a board model.
type Hardware struct {
	Model   string
	SoC     string
	RAMKB   int
	FlashKB int
	Radio   string
}

// Board models from the paper.
var (
	NRF52DK = Hardware{Model: "nrf52dk", SoC: "nRF52832 (Cortex-M4F)",
		RAMKB: 64, FlashKB: 512, Radio: "BLE"}
	NRF52840DK = Hardware{Model: "nrf52840dk", SoC: "nRF52840 (Cortex-M4F)",
		RAMKB: 256, FlashKB: 1024, Radio: "BLE"}
	M3 = Hardware{Model: "m3", SoC: "STM32F103 (Cortex-M3)",
		RAMKB: 64, FlashKB: 256, Radio: "IEEE 802.15.4"}
)

// NodeDesc is one testbed node. IDs are 1-based as in Fig. 6.
type NodeDesc struct {
	ID   int
	Name string
	HW   Hardware
	// Grid position in meters (1m spacing, §4.1).
	X, Y float64
}

// BLENodes returns the 15 Saclay BLE nodes in Fig. 6(a)'s 5×3 grid: the
// bottom two rows are nrf52dk-1..10, the top row nrf52840dk-6..10.
func BLENodes() []NodeDesc {
	nodes := make([]NodeDesc, 0, 15)
	for i := 1; i <= 10; i++ {
		nodes = append(nodes, NodeDesc{
			ID:   i,
			Name: fmt.Sprintf("nrf52dk-%d", i),
			HW:   NRF52DK,
			X:    float64((i - 1) % 5),
			Y:    float64((i - 1) / 5),
		})
	}
	for i := 11; i <= 15; i++ {
		nodes = append(nodes, NodeDesc{
			ID:   i,
			Name: fmt.Sprintf("nrf52840dk-%d", i-5),
			HW:   NRF52840DK,
			X:    float64(i - 11),
			Y:    2,
		})
	}
	return nodes
}

// M3Nodes returns the 15 Strasbourg m3 nodes for the 802.15.4 comparison.
func M3Nodes() []NodeDesc {
	nodes := make([]NodeDesc, 0, 15)
	for i := 1; i <= 15; i++ {
		nodes = append(nodes, NodeDesc{
			ID:   i,
			Name: fmt.Sprintf("m3-%d", i),
			HW:   M3,
			X:    float64((i - 1) % 5),
			Y:    float64((i - 1) / 5),
		})
	}
	return nodes
}

// Link is one statically configured BLE connection. The coordinator scans
// and initiates; the subordinate advertises. In both of the paper's
// topologies children coordinate toward their parent, so the consumer ends
// up subordinate for all of its links (the §6.1 shading scenario).
type Link struct {
	Coordinator int // node ID
	Subordinate int // node ID
}

// Topology is a statically configured network: links plus the traffic roles
// (one consumer, everyone else a producer).
type Topology struct {
	Name     string
	Consumer int
	Links    []Link

	// Pos, when non-nil, holds generated node positions in meters and Range
	// the disk-connectivity radio range that derived Links (see geo.go).
	// Classic paper topologies leave both zero: their medium stays
	// geometry-free.
	Pos   map[int]Point
	Range float64

	// idx is the sealed graph index (node list + adjacency), shared by all
	// copies of a sealed topology. Constructors call Seal; an unsealed
	// topology still works, rebuilding adjacency per call as before.
	idx *topoIndex
}

// topoIndex caches the derived graph structure of an immutable topology so
// NextHops/HopCount/Sites don't re-derive adjacency on every call — at 10k
// nodes the per-call rebuild turned route setup into O(N²) map churn.
type topoIndex struct {
	nodes []int
	adj   map[int][]int
}

// Seal freezes the topology's derived graph index. Adjacency lists keep the
// exact Links-order construction of the unsealed path, so sealed and
// unsealed topologies produce identical BFS orders (and therefore identical
// routes). Call it after the link set is final; mutating Links afterwards
// without re-sealing is a bug.
func (t *Topology) Seal() {
	t.idx = &topoIndex{nodes: t.nodesUncached(), adj: t.buildAdjacency()}
}

// Tree returns the 15-node tree of Fig. 6(b): depth ≤ 3, average producer
// hop count 2.14 (3 children at depth 1, 6 at depth 2, 5 at depth 3).
func Tree() Topology {
	parent := map[int]int{
		2: 1, 3: 1, 4: 1,
		5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 4,
		11: 5, 12: 6, 13: 7, 14: 8, 15: 9,
	}
	t := Topology{Name: "tree", Consumer: 1}
	for child := 2; child <= 15; child++ {
		t.Links = append(t.Links, Link{Coordinator: child, Subordinate: parent[child]})
	}
	t.Seal()
	return t
}

// Line returns the 15-node line of Fig. 6(c): the consumer at one end,
// average producer hop count 7.5.
func Line() Topology {
	t := Topology{Name: "line", Consumer: 1}
	for i := 2; i <= 15; i++ {
		t.Links = append(t.Links, Link{Coordinator: i, Subordinate: i - 1})
	}
	t.Seal()
	return t
}

// Mesh returns a 15-node braided tree for the dynamic-routing experiments:
// the tree of Fig. 6(b) thickened so every node below depth 1 has two
// parents at equal depth. Static routing can only use one path per node;
// with dynamic routing (internal/rpl) the redundant links are what local
// repair falls back to when a forwarder dies. Children coordinate toward
// parents, as in the other topologies.
func Mesh() Topology {
	t := Topology{Name: "mesh", Consumer: 1}
	links := [][2]int{
		// depth 1: three spine nodes under the consumer
		{2, 1}, {3, 1}, {4, 1},
		// depth 2: each braided across two depth-1 parents
		{5, 2}, {5, 3},
		{6, 2}, {6, 3},
		{7, 3}, {7, 4},
		{8, 3}, {8, 4},
		{9, 4}, {9, 2},
		{10, 4}, {10, 2},
		// depth 3: each braided across two depth-2 parents
		{11, 5}, {11, 6},
		{12, 6}, {12, 7},
		{13, 7}, {13, 8},
		{14, 8}, {14, 9},
		{15, 9}, {15, 10},
	}
	for _, l := range links {
		t.Links = append(t.Links, Link{Coordinator: l[0], Subordinate: l[1]})
	}
	t.Seal()
	return t
}

// Nodes returns the sorted IDs appearing in the topology.
func (t Topology) Nodes() []int {
	if t.idx != nil {
		return t.idx.nodes
	}
	return t.nodesUncached()
}

func (t Topology) nodesUncached() []int {
	seen := map[int]bool{t.Consumer: true}
	// Generated topologies may contain isolated nodes: positioned radios
	// with no disk neighbor and therefore no links. They are still nodes
	// (and singleton sites).
	for id := range t.Pos {
		seen[id] = true
	}
	for _, l := range t.Links {
		seen[l.Coordinator] = true
		seen[l.Subordinate] = true
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Sites returns the connected components of the link graph — the RF-closure
// domains the scheduler executes independently. Each component is sorted
// by ID; components are ordered by their minimum ID. A connected topology
// has exactly one site.
func (t Topology) Sites() [][]int {
	adj := t.adjacency()
	seen := make(map[int]bool)
	var sites [][]int
	for _, id := range t.Nodes() {
		if seen[id] {
			continue
		}
		comp := []int{id}
		seen[id] = true
		for q := []int{id}; len(q) > 0; {
			cur := q[0]
			q = q[1:]
			for _, nb := range adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
					q = append(q, nb)
				}
			}
		}
		sort.Ints(comp)
		sites = append(sites, comp)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i][0] < sites[j][0] })
	return sites
}

// SiteConsumers returns one traffic sink per site, aligned with Sites():
// the topology's Consumer for the site containing it, the minimum ID for
// every other site.
func (t Topology) SiteConsumers() []int {
	sites := t.Sites()
	out := make([]int, len(sites))
	for i, site := range sites {
		out[i] = site[0]
		for _, id := range site {
			if id == t.Consumer {
				out[i] = id
				break
			}
		}
	}
	return out
}

// Producers returns every node that is not a site consumer. For connected
// topologies this is everyone but the Consumer, exactly as before.
func (t Topology) Producers() []int {
	sinks := make(map[int]bool)
	for _, id := range t.SiteConsumers() {
		sinks[id] = true
	}
	var out []int
	for _, id := range t.Nodes() {
		if !sinks[id] {
			out = append(out, id)
		}
	}
	return out
}

// Forest returns sites disjoint copies of the Fig. 6(b) tree, offset by 100
// IDs per copy — the multi-site workload for the sharded scheduler and its
// benchmark. Site i occupies IDs 100i+1..100i+15; the consumer of the first
// copy is the topology Consumer, the other copies' sinks fall out of
// SiteConsumers (their minimum IDs, i.e. each copy's root).
func Forest(sites int) Topology {
	if sites < 1 {
		sites = 1
	}
	base := Tree()
	f := Topology{Name: fmt.Sprintf("forest-%dx-tree", sites), Consumer: base.Consumer}
	for s := 0; s < sites; s++ {
		off := 100 * s
		for _, l := range base.Links {
			f.Links = append(f.Links, Link{Coordinator: l.Coordinator + off, Subordinate: l.Subordinate + off})
		}
	}
	f.Seal()
	return f
}

// ByName resolves a CLI -topo value: the paper's fixed layouts (tree, line,
// mesh, forest = four isolated trees) or one of the seeded generators, of
// which geo honours nodes and all three honour radioRange (0 keeps the
// generator's default).
func ByName(name string, seed int64, nodes int, radioRange float64) (Topology, error) {
	switch name {
	case "tree":
		return Tree(), nil
	case "line":
		return Line(), nil
	case "mesh":
		return Mesh(), nil
	case "forest":
		return Forest(4), nil
	case "geo":
		return RandomGeometric(GeoConfig{Seed: seed, N: nodes, Range: radioRange}), nil
	case "city":
		return CityBlocks(CityConfig{Seed: seed, Range: radioRange}), nil
	case "floors":
		return BuildingFloors(FloorsConfig{Seed: seed, Range: radioRange}), nil
	}
	return Topology{}, fmt.Errorf(
		"unknown topology %q (tree, line, mesh, forest, geo, city, or floors)", name)
}

// adjacency returns the neighbor sets: the sealed index when available, a
// fresh Links-order build otherwise. Callers must not mutate the result.
func (t Topology) adjacency() map[int][]int {
	if t.idx != nil {
		return t.idx.adj
	}
	return t.buildAdjacency()
}

// Neighbors returns the nodes linked to id, once per link touching it, in
// Links order: from the sealed index, in O(degree). Callers must not modify
// the result.
func (t Topology) Neighbors(id int) []int { return t.adjacency()[id] }

func (t Topology) buildAdjacency() map[int][]int {
	adj := make(map[int][]int)
	for _, l := range t.Links {
		adj[l.Coordinator] = append(adj[l.Coordinator], l.Subordinate)
		adj[l.Subordinate] = append(adj[l.Subordinate], l.Coordinator)
	}
	return adj
}

// NextHops returns, for the given source, the next hop toward every other
// node (BFS over the link graph; paths are unique in trees and lines).
func (t Topology) NextHops(from int) map[int]int {
	adj := t.adjacency()
	// BFS from `from`, remembering each node's predecessor.
	pred := map[int]int{from: from}
	queue := []int{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if _, seen := pred[nb]; !seen {
				pred[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	// The next hop toward dst is the first step on the path, i.e. walk
	// back from dst until the predecessor is `from`.
	next := make(map[int]int)
	for dst := range pred {
		if dst == from {
			continue
		}
		hop := dst
		for pred[hop] != from {
			hop = pred[hop]
		}
		next[dst] = hop
	}
	return next
}

// HopCount returns the path length between two nodes.
func (t Topology) HopCount(a, b int) int {
	if a == b {
		return 0
	}
	adj := t.adjacency()
	dist := map[int]int{a: 0}
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				if nb == b {
					return dist[nb]
				}
				queue = append(queue, nb)
			}
		}
	}
	return -1
}

// sinkHops returns every producer's path length to the consumer of its own
// site (the only consumer there is in a connected topology).
func (t Topology) sinkHops() []int {
	var hops []int
	sinks := t.SiteConsumers()
	for i, site := range t.Sites() {
		for _, id := range site {
			if id != sinks[i] {
				hops = append(hops, t.HopCount(id, sinks[i]))
			}
		}
	}
	return hops
}

// AvgHopCount returns the mean producer→consumer path length (the paper
// quotes 2.14 for the tree and 7.5 for the line).
func (t Topology) AvgHopCount() float64 {
	sum := 0
	hops := t.sinkHops()
	for _, h := range hops {
		sum += h
	}
	return float64(sum) / float64(len(hops))
}

// MaxDepth returns the maximum producer→consumer path length.
func (t Topology) MaxDepth() int {
	max := 0
	for _, h := range t.sinkHops() {
		if h > max {
			max = h
		}
	}
	return max
}

// SubordinateCount returns how many links each node terminates in the
// subordinate role — the precondition for connection shading.
func (t Topology) SubordinateCount() map[int]int {
	out := make(map[int]int)
	for _, l := range t.Links {
		out[l.Subordinate]++
	}
	return out
}

// ClockPPM deterministically assigns each node a clock error drawn
// uniformly from ±maxPPM, seeded for reproducibility. The paper measured at
// most 6µs/s relative drift between boards, i.e. ±3ppm per board.
func ClockPPM(seed int64, ids []int, maxPPM float64) map[int]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[int]float64, len(ids))
	for _, id := range ids {
		out[id] = (float64(rng.Float64())*2 - 1) * maxPPM
	}
	return out
}
