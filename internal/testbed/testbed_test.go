package testbed

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestBLENodeInventory(t *testing.T) {
	nodes := BLENodes()
	if len(nodes) != 15 {
		t.Fatalf("%d BLE nodes, want 15", len(nodes))
	}
	dk, dk840 := 0, 0
	for _, n := range nodes {
		switch n.HW.Model {
		case "nrf52dk":
			dk++
		case "nrf52840dk":
			dk840++
		}
		if n.X < 0 || n.X > 4 || n.Y < 0 || n.Y > 2 {
			t.Fatalf("node %s outside the 5x3 grid: (%v,%v)", n.Name, n.X, n.Y)
		}
	}
	if dk != 10 || dk840 != 5 {
		t.Fatalf("inventory %d nrf52dk + %d nrf52840dk, want 10+5", dk, dk840)
	}
	if nodes[0].HW.RAMKB != 64 || nodes[14].HW.RAMKB != 256 {
		t.Fatal("hardware specs wrong")
	}
}

func TestM3NodeInventory(t *testing.T) {
	nodes := M3Nodes()
	if len(nodes) != 15 {
		t.Fatalf("%d m3 nodes", len(nodes))
	}
	for _, n := range nodes {
		if n.HW.Radio != "IEEE 802.15.4" {
			t.Fatalf("node %s has radio %s", n.Name, n.HW.Radio)
		}
	}
}

func TestTreeShapeMatchesPaper(t *testing.T) {
	tree := Tree()
	if len(tree.Links) != 14 {
		t.Fatalf("tree has %d links, want 14", len(tree.Links))
	}
	if tree.MaxDepth() != 3 {
		t.Fatalf("tree depth %d, want 3", tree.MaxDepth())
	}
	// §5.1: average hop count 2.14.
	if avg := tree.AvgHopCount(); math.Abs(avg-2.14) > 0.01 {
		t.Fatalf("tree average hop count %.3f, want 2.14", avg)
	}
	if len(tree.Producers()) != 14 {
		t.Fatalf("%d producers", len(tree.Producers()))
	}
	// §6.1: the consumer is subordinate for three connections.
	if sc := tree.SubordinateCount()[tree.Consumer]; sc != 3 {
		t.Fatalf("consumer subordinate for %d links, want 3", sc)
	}
}

func TestLineShapeMatchesPaper(t *testing.T) {
	line := Line()
	if len(line.Links) != 14 {
		t.Fatalf("line has %d links", len(line.Links))
	}
	if line.MaxDepth() != 14 {
		t.Fatalf("line depth %d, want 14", line.MaxDepth())
	}
	// §5.1: average hop count 7.5.
	if avg := line.AvgHopCount(); math.Abs(avg-7.5) > 0.001 {
		t.Fatalf("line average hop count %.3f, want 7.5", avg)
	}
}

func TestNextHopsTree(t *testing.T) {
	tree := Tree()
	// From node 11 (leaf under 5 under 2): next hop toward consumer 1 is 5.
	nh := tree.NextHops(11)
	if nh[1] != 5 || nh[5] != 5 || nh[2] != 5 {
		t.Fatalf("leaf next hops wrong: %v", nh)
	}
	// From the consumer: next hop to 11 is child 2.
	nh = tree.NextHops(1)
	if nh[11] != 2 {
		t.Fatalf("consumer next hop to 11 = %d, want 2", nh[11])
	}
	if nh[4] != 4 {
		t.Fatalf("direct child next hop = %d, want 4", nh[4])
	}
}

func TestNextHopsLine(t *testing.T) {
	line := Line()
	nh := line.NextHops(15)
	if nh[1] != 14 {
		t.Fatalf("line end next hop = %d, want 14", nh[1])
	}
	for dst := 1; dst < 15; dst++ {
		if nh[dst] != 14 {
			t.Fatalf("next hop from 15 to %d = %d, want 14", dst, nh[dst])
		}
	}
}

func TestHopCountSymmetric(t *testing.T) {
	tree := Tree()
	for _, a := range tree.Nodes() {
		for _, b := range tree.Nodes() {
			if tree.HopCount(a, b) != tree.HopCount(b, a) {
				t.Fatalf("asymmetric hop count %d↔%d", a, b)
			}
		}
	}
	if tree.HopCount(1, 1) != 0 {
		t.Fatal("self hop count not 0")
	}
}

func TestClockPPMDeterministicAndBounded(t *testing.T) {
	ids := Tree().Nodes()
	a := ClockPPM(42, ids, 3)
	b := ClockPPM(42, ids, 3)
	differs := false
	for _, id := range ids {
		if a[id] != b[id] {
			t.Fatal("ClockPPM not deterministic")
		}
		if math.Abs(a[id]) > 3 {
			t.Fatalf("ppm %v out of ±3", a[id])
		}
		if a[id] != a[ids[0]] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("all nodes got the same clock")
	}
	c := ClockPPM(43, ids, 3)
	if c[ids[0]] == a[ids[0]] {
		t.Fatal("different seeds should differ")
	}
}

// TestByName holds the one -topo parser to what the four CLI switches it
// replaced built: the same Name, node count and link list for every name any
// of them accepted, and an error that lists the names for anything else.
func TestByName(t *testing.T) {
	const seed, nodes, radioRange = 7, 80, 25.0
	for name, want := range map[string]Topology{
		"tree":   Tree(),
		"line":   Line(),
		"mesh":   Mesh(),
		"forest": Forest(4),
		"geo":    RandomGeometric(GeoConfig{Seed: seed, N: nodes, Range: radioRange}),
		"city":   CityBlocks(CityConfig{Seed: seed, Range: radioRange}),
		"floors": BuildingFloors(FloorsConfig{Seed: seed, Range: radioRange}),
	} {
		got, err := ByName(name, seed, nodes, radioRange)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got.Name != want.Name || got.Range != want.Range || len(got.Nodes()) != len(want.Nodes()) ||
			!reflect.DeepEqual(got.Links, want.Links) {
			t.Errorf("ByName(%q) = %s with %d nodes, %d links; the constructor gives %s with %d, %d",
				name, got.Name, len(got.Nodes()), len(got.Links), want.Name, len(want.Nodes()), len(want.Links))
		}
	}
	for _, name := range []string{"", "both", "Tree", "msh"} {
		_, err := ByName(name, seed, nodes, radioRange)
		if err == nil || !strings.Contains(err.Error(), "tree, line, mesh, forest, geo, city, or floors") {
			t.Errorf("ByName(%q) error = %v, want one listing the seven names", name, err)
		}
	}
}

// TestHopCountsArePerSite: a producer's depth is measured to the consumer of
// its own site, so four isolated trees read as one tree does.
func TestHopCountsArePerSite(t *testing.T) {
	tree, forest := Tree(), Forest(4)
	if forest.AvgHopCount() != tree.AvgHopCount() || forest.MaxDepth() != tree.MaxDepth() {
		t.Fatalf("forest avg hops %.3f depth %d, tree %.3f and %d",
			forest.AvgHopCount(), forest.MaxDepth(), tree.AvgHopCount(), tree.MaxDepth())
	}
}
