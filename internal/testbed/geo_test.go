package testbed

import (
	"reflect"
	"testing"
)

// diskComponents computes the connected components of the disk graph by
// brute force O(N²) union-find — the reference the generator's derived link
// set must reproduce.
func diskComponents(t Topology) [][]int {
	ids := t.Nodes()
	parent := make(map[int]int, len(ids))
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, id := range ids {
		parent[id] = id
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if InRange(t.Pos[a], t.Pos[b], t.Range) {
				parent[find(a)] = find(b)
			}
		}
	}
	comp := make(map[int][]int)
	for _, id := range ids {
		r := find(id)
		comp[r] = append(comp[r], id)
	}
	var out [][]int
	for _, c := range comp {
		out = append(out, c)
	}
	sortSites(out)
	return out
}

func sortSites(sites [][]int) {
	for _, s := range sites {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0 && sites[j][0] < sites[j-1][0]; j-- {
			sites[j], sites[j-1] = sites[j-1], sites[j]
		}
	}
}

// checkGeoInvariants asserts the generator contract every positioned
// topology must satisfy; shared by the unit tests and the fuzz target.
func checkGeoInvariants(t *testing.T, topo Topology) {
	t.Helper()
	seen := make(map[[2]int]bool)
	for _, l := range topo.Links {
		if l.Coordinator == l.Subordinate {
			t.Fatalf("self-link at node %d", l.Coordinator)
		}
		pa, oka := topo.Pos[l.Coordinator]
		pb, okb := topo.Pos[l.Subordinate]
		if !oka || !okb {
			t.Fatalf("link %d->%d references unpositioned node", l.Coordinator, l.Subordinate)
		}
		if !InRange(pa, pb, topo.Range) {
			t.Fatalf("link %d->%d longer than range %.1f", l.Coordinator, l.Subordinate, topo.Range)
		}
		a, b := l.Coordinator, l.Subordinate
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			t.Fatalf("duplicate link between %d and %d", a, b)
		}
		seen[[2]int{a, b}] = true
	}
	// Every node appears in exactly one site.
	sites := topo.Sites()
	where := make(map[int]int)
	for si, site := range sites {
		for _, id := range site {
			if prev, dup := where[id]; dup {
				t.Fatalf("node %d in sites %d and %d", id, prev, si)
			}
			where[id] = si
		}
	}
	for _, id := range topo.Nodes() {
		if _, ok := where[id]; !ok {
			t.Fatalf("node %d in no site", id)
		}
	}
	// The spanning forest preserves exactly the disk graph's components.
	if want := diskComponents(topo); !reflect.DeepEqual(sites, want) {
		t.Fatalf("Sites() = %v, disk components = %v", sites, want)
	}
}

func TestRandomGeometricDeterministic(t *testing.T) {
	cfg := GeoConfig{Seed: 7, N: 120, Width: 80, Height: 80, Range: 12}
	a, b := RandomGeometric(cfg), RandomGeometric(cfg)
	if !reflect.DeepEqual(a.Links, b.Links) || !reflect.DeepEqual(a.Pos, b.Pos) {
		t.Fatal("same seed produced different topologies")
	}
	cfg.Seed = 8
	c := RandomGeometric(cfg)
	if reflect.DeepEqual(a.Links, c.Links) && reflect.DeepEqual(a.Pos, c.Pos) {
		t.Fatal("different seeds produced identical topologies")
	}
	checkGeoInvariants(t, a)
}

func TestCityBlocksInvariants(t *testing.T) {
	topo := CityBlocks(CityConfig{Seed: 3})
	if n := len(topo.Nodes()); n != 4*4*6 {
		t.Fatalf("city 4x4x6 has %d nodes, want 96", n)
	}
	checkGeoInvariants(t, topo)
}

func TestBuildingFloorsSitesAreBuildings(t *testing.T) {
	cfg := FloorsConfig{Seed: 5, Buildings: 3, Floors: 2, PerFloor: 10}
	topo := BuildingFloors(cfg)
	checkGeoInvariants(t, topo)
	// The 30m gap (gapM) exceeds the 12m range, so no site may span two
	// buildings (each building holds a contiguous ID block).
	perB := cfg.Floors * cfg.PerFloor
	for _, site := range topo.Sites() {
		b := (site[0] - 1) / perB
		for _, id := range site {
			if (id-1)/perB != b {
				t.Fatalf("site %v spans buildings %d and %d", site, b, (id-1)/perB)
			}
		}
	}
}

func TestSealedTopologyMatchesUnsealed(t *testing.T) {
	sealed := Mesh()
	unsealed := Topology{Name: sealed.Name, Consumer: sealed.Consumer, Links: sealed.Links}
	for _, from := range sealed.Nodes() {
		if !reflect.DeepEqual(sealed.NextHops(from), unsealed.NextHops(from)) {
			t.Fatalf("sealed NextHops(%d) differs from unsealed", from)
		}
		for _, to := range sealed.Nodes() {
			if sealed.HopCount(from, to) != unsealed.HopCount(from, to) {
				t.Fatalf("sealed HopCount(%d,%d) differs from unsealed", from, to)
			}
		}
	}
	if !reflect.DeepEqual(sealed.Sites(), unsealed.Sites()) {
		t.Fatal("sealed Sites differs from unsealed")
	}
}

func TestSinkForestReachesSinks(t *testing.T) {
	topo := RandomGeometric(GeoConfig{Seed: 11, N: 200, Width: 120, Height: 120, Range: 14})
	parent := topo.SinkForest()
	sinks := make(map[int]bool)
	for _, s := range topo.SiteConsumers() {
		sinks[s] = true
	}
	for _, id := range topo.Nodes() {
		if sinks[id] {
			if _, ok := parent[id]; ok {
				t.Fatalf("sink %d has a parent", id)
			}
			continue
		}
		cur, hops := id, 0
		for !sinks[cur] {
			next, ok := parent[cur]
			if !ok {
				t.Fatalf("node %d: parent chain breaks at %d", id, cur)
			}
			cur = next
			if hops++; hops > len(topo.Nodes()) {
				t.Fatalf("node %d: parent chain loops", id)
			}
		}
	}
}

func TestMeanDiskDegree(t *testing.T) {
	if d := Tree().MeanDiskDegree(); d != 0 {
		t.Fatalf("geometry-free tree has disk degree %v, want 0", d)
	}
	topo := RandomGeometric(GeoConfig{Seed: 2, N: 150, Width: 60, Height: 60, Range: 15})
	if d := topo.MeanDiskDegree(); d <= 0 {
		t.Fatalf("dense geo topology has disk degree %v, want > 0", d)
	}
}

// FuzzGeoTopology drives all three generators across fuzzed configurations
// and checks the full invariant set: determinism per seed, valid symmetric
// links, every node in exactly one site, and Sites() equal to the disk
// graph's connected components.
func FuzzGeoTopology(f *testing.F) {
	f.Add(byte(0), int64(1), uint16(64), uint16(120))
	f.Add(byte(1), int64(7), uint16(48), uint16(200))
	f.Add(byte(2), int64(42), uint16(30), uint16(100))
	f.Add(byte(0), int64(-5), uint16(1), uint16(10))
	f.Add(byte(2), int64(99), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, kind byte, seed int64, n uint16, rr uint16) {
		r := float64(rr%400)/10 + 0.5 // 0.5..40.4m
		build := func() Topology {
			switch kind % 3 {
			case 0:
				return RandomGeometric(GeoConfig{Seed: seed, N: int(n%256) + 1,
					Width: 100, Height: 100, Range: r})
			case 1:
				return CityBlocks(CityConfig{Seed: seed,
					BlocksX: int(n%4) + 1, BlocksY: int(n/4%4) + 1,
					PerBlock: int(n/16%8) + 1, Range: r})
			default:
				return BuildingFloors(FloorsConfig{Seed: seed,
					Buildings: int(n%3) + 1, Floors: int(n/3%3) + 1,
					PerFloor: int(n/9%10) + 1, Range: r})
			}
		}
		a, b := build(), build()
		if !reflect.DeepEqual(a.Links, b.Links) || !reflect.DeepEqual(a.Pos, b.Pos) {
			t.Fatal("generator is not deterministic")
		}
		checkGeoInvariants(t, a)
	})
}
