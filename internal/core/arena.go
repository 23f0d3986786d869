package core

import (
	"blemesh/internal/arena"
	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
)

// Arena is preallocated struct storage for arena-backed node construction:
// one contiguous slab per subsystem type, sized for a known node count and
// carved one element per node. An arena decides only where a node's structs
// live — a node built without one (NodeConfig.Arena nil) allocates each
// struct separately and is otherwise the same node.
//
// An arena is single-site: node construction carves slabs sequentially, so
// parallel builders use one arena per topology site.
type Arena struct {
	nodes  *arena.Slab[Node]
	clocks *arena.Slab[sim.Clock]
	ctrls  *arena.Slab[ble.Controller]
	mgrs   *arena.Slab[statconn.Manager]
	netifs *arena.Slab[NetIf]
	stacks *arena.Slab[ip6.Stack]
	coaps  *arena.Slab[coap.Endpoint]
}

// nodeStorage is the seven structs one node is assembled from.
type nodeStorage struct {
	node  *Node
	clock *sim.Clock
	ctrl  *ble.Controller
	mgr   *statconn.Manager
	netif *NetIf
	stack *ip6.Stack
	coap  *coap.Endpoint
}

// storage is the one place that decides where a node's structs come from:
// the next element of each slab, or the heap when there is no arena.
func (a *Arena) storage() nodeStorage {
	if a == nil {
		return nodeStorage{
			node:  new(Node),
			clock: new(sim.Clock),
			ctrl:  new(ble.Controller),
			mgr:   new(statconn.Manager),
			netif: new(NetIf),
			stack: new(ip6.Stack),
			coap:  new(coap.Endpoint),
		}
	}
	return nodeStorage{
		node:  a.nodes.Take(),
		clock: a.clocks.Take(),
		ctrl:  a.ctrls.Take(),
		mgr:   a.mgrs.Take(),
		netif: a.netifs.Take(),
		stack: a.stacks.Take(),
		coap:  a.coaps.Take(),
	}
}

// NewArenas preallocates one arena per site — the layout a parallel per-site
// network builder wants: each site's goroutine carves its own arena
// sequentially. Per type, all sites split one network-wide backing array
// (arena.NewSlabs): generated city-scale fields have thousands of
// single-digit-node sites, and per-site slab allocations would pay malloc
// size-class rounding on every one of them.
func NewArenas(sizes []int) []*Arena {
	nodes := arena.NewSlabs[Node](sizes)
	clocks := arena.NewSlabs[sim.Clock](sizes)
	ctrls := arena.NewSlabs[ble.Controller](sizes)
	mgrs := arena.NewSlabs[statconn.Manager](sizes)
	netifs := arena.NewSlabs[NetIf](sizes)
	stacks := arena.NewSlabs[ip6.Stack](sizes)
	coaps := arena.NewSlabs[coap.Endpoint](sizes)
	out := make([]*Arena, len(sizes))
	for i := range sizes {
		out[i] = &Arena{
			nodes:  nodes[i],
			clocks: clocks[i],
			ctrls:  ctrls[i],
			mgrs:   mgrs[i],
			netifs: netifs[i],
			stacks: stacks[i],
			coaps:  coaps[i],
		}
	}
	return out
}
