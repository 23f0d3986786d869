// Command blemesh-topo prints the testbed inventory and the statically
// configured topologies of the paper's Fig. 6, including the role
// assignment that makes the consumer subordinate for several connections —
// the precondition for connection shading.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"blemesh/internal/exp"
	"blemesh/internal/testbed"
)

func main() {
	which := flag.String("topo", "both", "both (tree and line), tree, line, mesh, forest, geo, city, or floors")
	seed := flag.Int64("seed", 1, "generator seed for geo/city/floors")
	nodes := flag.Int("nodes", 60, "node count for -topo geo")
	radioRange := flag.Float64("range", 0, "disk radio range in meters for generated topologies (0 = generator default)")
	flag.Parse()
	if err := exp.ValidateFlags(*nodes, *radioRange, 1); err != nil { // no -minutes here: nothing runs
		fmt.Fprintln(os.Stderr, "blemesh-topo:", err)
		os.Exit(2)
	}

	topos := []testbed.Topology{testbed.Tree(), testbed.Line()}
	if *which != "both" {
		t, err := testbed.ByName(*which, *seed, *nodes, *radioRange)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blemesh-topo:", err)
			os.Exit(2)
		}
		topos = []testbed.Topology{t}
	}
	w := bufio.NewWriter(os.Stdout)
	if t := topos[0]; t.Pos != nil {
		showGeo(w, t)
	} else {
		showTestbed(w, topos)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "blemesh-topo:", err)
		os.Exit(1)
	}
}

// showTestbed prints the paper's node inventory and each topology's link
// list and role assignment.
func showTestbed(w io.Writer, topos []testbed.Topology) {
	fmt.Fprintln(w, "== FIT IoT-Lab inventory (paper §4.1) ==")
	fmt.Fprintln(w, "BLE nodes (Saclay):")
	for _, n := range testbed.BLENodes() {
		fmt.Fprintf(w, "  %2d  %-14s %-22s RAM %3dKB flash %4dKB  grid (%.0f,%.0f)\n",
			n.ID, n.Name, n.HW.SoC, n.HW.RAMKB, n.HW.FlashKB, n.X, n.Y)
	}
	fmt.Fprintln(w, "IEEE 802.15.4 nodes (Strasbourg):")
	for _, n := range testbed.M3Nodes()[:3] {
		fmt.Fprintf(w, "  %2d  %-14s %-22s RAM %3dKB flash %4dKB\n",
			n.ID, n.Name, n.HW.SoC, n.HW.RAMKB, n.HW.FlashKB)
	}
	fmt.Fprintln(w, "  ... (15 total)")

	show := func(t testbed.Topology) {
		fig := ""
		if t.Name == "tree" || t.Name == "line" {
			fig = " (Fig. 6)"
		}
		fmt.Fprintf(w, "\n== %s topology%s ==\n", t.Name, fig)
		if sinks := t.SiteConsumers(); len(sinks) > 1 {
			fmt.Fprintf(w, "consumers: nodes %v; ", sinks)
		} else {
			fmt.Fprintf(w, "consumer: node %d; ", t.Consumer)
		}
		fmt.Fprintf(w, "%d producers; avg hop count %.2f; max depth %d\n",
			len(t.Producers()), t.AvgHopCount(), t.MaxDepth())
		fmt.Fprintln(w, "links (coordinator -> subordinate):")
		for _, l := range t.Links {
			fmt.Fprintf(w, "  %2d -> %2d\n", l.Coordinator, l.Subordinate)
		}
		fmt.Fprintln(w, "subordinate-role link counts (shading requires ≥2):")
		sc := t.SubordinateCount()
		for _, id := range t.Nodes() {
			if sc[id] >= 2 {
				fmt.Fprintf(w, "  node %2d is subordinate for %d links\n", id, sc[id])
			}
		}
	}
	for _, t := range topos {
		show(t)
	}
}

// showGeo prints a generated positioned topology: the arena, the site
// decomposition, and the per-site sinks, rather than Fig. 6's hand-drawn
// link list (a 10k-node link list is not a display).
func showGeo(w io.Writer, t testbed.Topology) {
	minX, minY, maxX, maxY := 0.0, 0.0, 0.0, 0.0
	first := true
	for _, p := range t.Pos {
		if first {
			minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
			first = false
			continue
		}
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	sites := t.Sites()
	fmt.Fprintf(w, "== %s (generated) ==\n", t.Name)
	fmt.Fprintf(w, "%d nodes on a %.0fm × %.0fm arena, radio range %.1fm, mean disk degree %.2f\n",
		len(t.Nodes()), maxX-minX, maxY-minY, t.Range, t.MeanDiskDegree())
	fmt.Fprintf(w, "%d links (BFS spanning forest of the disk graph), %d sites\n",
		len(t.Links), len(sites))
	sinks := t.SiteConsumers()
	for i, site := range sites {
		p := t.Pos[sinks[i]]
		fmt.Fprintf(w, "  site %3d: %4d nodes, sink node %d at (%.0f,%.0f)\n",
			i, len(site), sinks[i], p.X, p.Y)
		if i == 19 && len(sites) > 20 {
			fmt.Fprintf(w, "  ... (%d more sites)\n", len(sites)-20)
			break
		}
	}
}
