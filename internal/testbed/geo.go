// City-scale generated topologies. The paper's experiments stop at 15-node
// trees; the generators here produce positioned networks of thousands of
// nodes — random geometric graphs, city-block street grids, and
// building-floor clusters — with links derived from node coordinates and a
// disk radio range. Derived links form a BFS spanning forest of the disk
// connectivity graph, so every disk-connected cluster stays one connected
// component ("site") and Sites() maps straight onto the sharded scheduler's
// RF-closure domains. All generators are pure functions of their seed.
package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Point is a node position in meters. Z is nonzero only for building-floor
// topologies (floor height); distance is always full 3D euclidean.
type Point struct {
	X, Y, Z float64
}

// distSq returns the squared euclidean distance between two points.
// Connectivity and the phy medium's geometric filter both compare distSq
// against Range², never the rooted distance, so the two layers make
// bit-identical in/out decisions.
func distSq(a, b Point) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// InRange reports whether two positions are within radio range r of each
// other (boundary inclusive: distance exactly r connects).
func InRange(a, b Point, r float64) bool { return distSq(a, b) <= r*r }

// GeoConfig parameterises the random geometric generator.
type GeoConfig struct {
	// Seed makes the placement reproducible.
	Seed int64
	// N is the node count (IDs 1..N).
	N int
	// Width and Height span the deployment area in meters (default 100×100).
	Width, Height float64
	// Range is the disk radio range in meters (default 15).
	Range float64
}

func (c *GeoConfig) defaults() {
	if c.N < 1 {
		c.N = 1
	}
	if c.Width <= 0 {
		c.Width = 100
	}
	if c.Height <= 0 {
		c.Height = 100
	}
	if c.Range <= 0 {
		c.Range = 15
	}
}

// RandomGeometric places N nodes uniformly at random in a Width×Height area
// and derives links from disk connectivity at the configured range. Sparse
// configurations fragment into many sites; dense ones form one.
func RandomGeometric(cfg GeoConfig) Topology {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pos := make(map[int]Point, cfg.N)
	for id := 1; id <= cfg.N; id++ {
		pos[id] = Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
	}
	return derive(fmt.Sprintf("geo-%d", cfg.N), pos, cfg.Range)
}

// CityConfig parameterises the city-block generator.
type CityConfig struct {
	// Seed makes the placement reproducible.
	Seed int64
	// BlocksX × BlocksY is the street grid (default 4×4 blocks).
	BlocksX, BlocksY int
	// PerBlock is the number of nodes scattered along each block's
	// street frontage (default 6).
	PerBlock int
	// Range is the disk radio range in meters (default 25).
	Range float64
}

func (c *CityConfig) defaults() {
	if c.BlocksX < 1 {
		c.BlocksX = 4
	}
	if c.BlocksY < 1 {
		c.BlocksY = 4
	}
	if c.PerBlock < 1 {
		c.PerBlock = 6
	}
	if c.Range <= 0 {
		c.Range = 25
	}
}

// The city grid's geometry.
const (
	// blockM is the block edge length in meters.
	blockM float64 = 40
	// streetJitter is the maximum perpendicular offset from the street
	// line in meters, modelling doorways and street furniture.
	streetJitter float64 = 2
)

// CityBlocks places nodes along the street frontage of a BlocksX×BlocksY
// city grid: each block contributes PerBlock nodes distributed around its
// perimeter with a small perpendicular jitter. Streets concentrate nodes
// into corridors, so connectivity is anisotropic — long thin chains along
// streets rather than the isotropic blobs of RandomGeometric.
func CityBlocks(cfg CityConfig) Topology {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pos := make(map[int]Point)
	id := 1
	perim := 4 * blockM
	for by := 0; by < cfg.BlocksY; by++ {
		for bx := 0; bx < cfg.BlocksX; bx++ {
			ox, oy := float64(float64(bx)*blockM), float64(float64(by)*blockM)
			for k := 0; k < cfg.PerBlock; k++ {
				// Walk a uniformly random arc length around the block
				// perimeter, then jitter perpendicular to the street.
				d := float64(rng.Float64() * perim)
				j := float64((float64(rng.Float64())*2 - 1) * streetJitter)
				var p Point
				switch {
				case d < blockM: // south edge
					p = Point{X: ox + d, Y: oy + j}
				case d < 2*blockM: // east edge
					p = Point{X: ox + blockM + j, Y: oy + (d - blockM)}
				case d < 3*blockM: // north edge
					p = Point{X: ox + (d - 2*blockM), Y: oy + blockM + j}
				default: // west edge
					p = Point{X: ox + j, Y: oy + (d - float64(3*blockM))}
				}
				pos[id] = p
				id++
			}
		}
	}
	return derive(fmt.Sprintf("city-%dx%d", cfg.BlocksX, cfg.BlocksY), pos, cfg.Range)
}

// FloorsConfig parameterises the building-floor generator.
type FloorsConfig struct {
	// Seed makes the placement reproducible.
	Seed int64
	// Buildings is the building count, laid out in a row (default 4).
	Buildings int
	// Floors per building (default 3) and nodes per floor (default 8).
	Floors, PerFloor int
	// Range is the disk radio range in meters (default 12).
	Range float64
}

func (c *FloorsConfig) defaults() {
	if c.Buildings < 1 {
		c.Buildings = 4
	}
	if c.Floors < 1 {
		c.Floors = 3
	}
	if c.PerFloor < 1 {
		c.PerFloor = 8
	}
	if c.Range <= 0 {
		c.Range = 12
	}
}

// The buildings' geometry.
const (
	// footprintM is the square building footprint edge in meters.
	footprintM float64 = 20
	// floorH is the vertical floor separation in meters.
	floorH float64 = 3
	// gapM is the horizontal gap between adjacent buildings. A gap wider
	// than Range makes every building its own RF-isolated site — the
	// natural shard decomposition.
	gapM float64 = 30
)

// BuildingFloors places PerFloor nodes uniformly on each floor of each
// building; buildings stand in a row separated by gapM. Vertical links span
// adjacent floors (floorH < Range), horizontal links stay within a floor,
// and with gapM > Range each building is one RF-isolated site.
func BuildingFloors(cfg FloorsConfig) Topology {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pos := make(map[int]Point)
	id := 1
	for b := 0; b < cfg.Buildings; b++ {
		ox := float64(float64(b) * (footprintM + gapM))
		for f := 0; f < cfg.Floors; f++ {
			for k := 0; k < cfg.PerFloor; k++ {
				pos[id] = Point{
					X: ox + float64(rng.Float64()*footprintM),
					Y: rng.Float64() * footprintM,
					Z: float64(f) * floorH,
				}
				id++
			}
		}
	}
	return derive(fmt.Sprintf("floors-%dx%d", cfg.Buildings, cfg.Floors), pos, cfg.Range)
}

// cellBuckets is a uniform grid over positions with cell edge = range, used
// to derive disk neighbors in O(N·density) instead of O(N²). The same
// cell≈range construction backs the phy medium's runtime index.
type cellBuckets struct {
	r     float64
	cells map[[2]int32][]int
	pos   map[int]Point
}

func bucketize(pos map[int]Point, ids []int, r float64) *cellBuckets {
	cb := &cellBuckets{r: r, cells: make(map[[2]int32][]int), pos: pos}
	for _, id := range ids { // ids are sorted, so each cell's list is too
		k := cb.key(pos[id])
		cb.cells[k] = append(cb.cells[k], id)
	}
	return cb
}

func (cb *cellBuckets) key(p Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / cb.r)), int32(math.Floor(p.Y / cb.r))}
}

// neighbors returns id's disk neighbors in ascending ID order.
func (cb *cellBuckets) neighbors(id int) []int {
	p := cb.pos[id]
	k := cb.key(p)
	var out []int
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for _, nb := range cb.cells[[2]int32{k[0] + dx, k[1] + dy}] {
				if nb != id && InRange(p, cb.pos[nb], cb.r) {
					out = append(out, nb)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// derive turns positions + range into a Topology: disk connectivity gives
// the neighbor graph, and a BFS spanning forest of it (roots at each
// component's minimum ID, neighbors visited in ascending ID order) gives the
// static BLE links — children coordinate toward their parent, as in the
// paper's topologies. A spanning forest keeps the per-node connection count
// bounded by local density while preserving exactly the disk graph's
// connected components, so Sites() equals the disk components and the
// sharded scheduler can cut the run along them.
func derive(name string, pos map[int]Point, r float64) Topology {
	ids := make([]int, 0, len(pos))
	for id := range pos {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cb := bucketize(pos, ids, r)

	t := Topology{Name: name, Consumer: 1, Pos: pos, Range: r}
	visited := make(map[int]bool, len(ids))
	for _, root := range ids {
		if visited[root] {
			continue
		}
		visited[root] = true
		for q := []int{root}; len(q) > 0; {
			cur := q[0]
			q = q[1:]
			for _, nb := range cb.neighbors(cur) {
				if !visited[nb] {
					visited[nb] = true
					t.Links = append(t.Links, Link{Coordinator: nb, Subordinate: cur})
					q = append(q, nb)
				}
			}
		}
	}
	t.Seal()
	return t
}

// MeanDiskDegree returns the average disk-graph neighbor count — the
// density measure of the Bluetooth Mesh scalability literature. Zero for
// non-generated topologies (no positions).
func (t Topology) MeanDiskDegree() float64 {
	if len(t.Pos) == 0 || t.Range <= 0 {
		return 0
	}
	ids := t.Nodes()
	cb := bucketize(t.Pos, ids, t.Range)
	total := 0
	for _, id := range ids {
		total += len(cb.neighbors(id))
	}
	return float64(total) / float64(len(ids))
}

// SinkForest returns every non-sink node's next hop toward its site's
// traffic sink (BFS over the link graph from each sink, neighbors in
// adjacency order). It is the sparse-route alternative to the all-pairs
// NextHops install: producer→sink forwarding needs each node's parent, and
// sink→producer responses need each ancestor's downward hop — O(N·depth)
// routes total instead of O(N²).
func (t Topology) SinkForest() map[int]int {
	adj := t.adjacency()
	parent := make(map[int]int, len(adj))
	for _, sink := range t.SiteConsumers() {
		parent[sink] = sink
		for q := []int{sink}; len(q) > 0; {
			cur := q[0]
			q = q[1:]
			for _, nb := range adj[cur] {
				if _, seen := parent[nb]; !seen {
					parent[nb] = cur
					q = append(q, nb)
				}
			}
		}
	}
	for _, sink := range t.SiteConsumers() {
		delete(parent, sink)
	}
	return parent
}
