package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphBasics(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	for v := 0; v < 5; v++ {
		if g.VertexWeight(v) != 1 {
			t.Errorf("default vertex weight of %d = %d, want 1", v, g.VertexWeight(v))
		}
	}
}

func TestAddEdgeAndQueries(t *testing.T) {
	g := New(4)
	if err := g.AddWeightedEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} should exist in both directions")
	}
	if g.HasEdge(0, 2) {
		t.Error("edge {0,2} should not exist")
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 7 {
		t.Errorf("EdgeWeight(1,0) = %d,%v want 7,true", w, ok)
	}
	if g.M() != 2 {
		t.Errorf("M() = %d, want 2", g.M())
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	cases := []struct {
		name string
		u, v int
	}{
		{name: "self loop", u: 1, v: 1},
		{name: "u out of range", u: -1, v: 0},
		{name: "v out of range", u: 0, v: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := g.AddEdge(tc.u, tc.v); err == nil {
				t.Errorf("AddEdge(%d,%d) succeeded, want error", tc.u, tc.v)
			}
		})
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestSetEdgeWeight(t *testing.T) {
	g := New(3)
	g.MustAddWeightedEdge(0, 1, 5)
	if err := g.SetEdgeWeight(1, 0, 9); err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 9 {
		t.Errorf("weight after set = %d, want 9", w)
	}
	if err := g.SetEdgeWeight(0, 2, 1); err == nil {
		t.Error("SetEdgeWeight on missing edge succeeded")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.MustAddWeightedEdge(3, 1, 2)
	g.MustAddWeightedEdge(0, 2, 4)
	edges := g.Edges()
	want := []Edge{{U: 0, V: 2, Weight: 4}, {U: 1, V: 3, Weight: 2}}
	if len(edges) != len(want) {
		t.Fatalf("len(edges) = %d, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edges[%d] = %+v, want %+v", i, edges[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2)
	if err := c.SetVertexWeight(0, 42); err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("clone mutation leaked edges into original: M = %d", g.M())
	}
	if g.VertexWeight(0) != 1 {
		t.Error("clone mutation leaked vertex weight into original")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("Diameter(path5) = %d, want 4", d)
	}
	cyc, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	if d := cyc.Diameter(); d != 3 {
		t.Errorf("Diameter(cycle6) = %d, want 3", d)
	}
	if d := Complete(7).Diameter(); d != 1 {
		t.Errorf("Diameter(K7) = %d, want 1", d)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	if g.IsConnected() {
		t.Error("two components reported connected")
	}
	if d := g.Diameter(); d != -1 {
		t.Errorf("Diameter(disconnected) = %d, want -1", d)
	}
	comp, count := g.Components()
	if count != 2 {
		t.Errorf("Components count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Errorf("component labels wrong: %v", comp)
	}
}

func TestDijkstraAgainstBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := Gnp(12, 0.3, rng)
		bfs := g.BFS(0)
		dij := g.Dijkstra(0)
		for v := range bfs {
			if int64(bfs[v]) != dij[v] {
				t.Fatalf("trial %d vertex %d: bfs %d vs dijkstra %d", trial, v, bfs[v], dij[v])
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle where the direct edge is heavier than the two-hop path.
	g := New(3)
	g.MustAddWeightedEdge(0, 2, 10)
	g.MustAddWeightedEdge(0, 1, 3)
	g.MustAddWeightedEdge(1, 2, 4)
	dist := g.Dijkstra(0)
	if dist[2] != 7 {
		t.Errorf("dist[2] = %d, want 7", dist[2])
	}
}

func TestPowerGraph(t *testing.T) {
	g := Path(5)
	p2 := g.Power(2)
	if !p2.HasEdge(0, 2) || !p2.HasEdge(1, 3) {
		t.Error("distance-2 edges missing from square")
	}
	if p2.HasEdge(0, 3) {
		t.Error("distance-3 edge present in square")
	}
	p4 := g.Power(4)
	if p4.M() != 5*4/2 {
		t.Errorf("P5^4 should be complete, got m=%d", p4.M())
	}
}

func TestBridges(t *testing.T) {
	// Two triangles joined by a single bridge edge 2-3.
	g := New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(5, 3)
	g.MustAddEdge(2, 3)
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0].U != 2 || bridges[0].V != 3 {
		t.Errorf("Bridges = %+v, want [{2 3 1}]", bridges)
	}
	if g.Is2EdgeConnected() {
		t.Error("graph with bridge reported 2-edge-connected")
	}
	cyc, _ := Cycle(5)
	if !cyc.Is2EdgeConnected() {
		t.Error("cycle reported not 2-edge-connected")
	}
	if got := len(Path(6).Bridges()); got != 5 {
		t.Errorf("path bridges = %d, want 5", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	for v := 0; v < 5; v++ {
		if err := g.SetVertexWeight(v, int64(v)); err != nil {
			t.Fatal(err)
		}
	}
	sub, orig := g.InducedSubgraph(func(v int) bool { return v%2 == 0 })
	if sub.N() != 3 {
		t.Fatalf("induced N = %d, want 3", sub.N())
	}
	if sub.M() != 3 {
		t.Errorf("induced M = %d, want 3 (K3)", sub.M())
	}
	for i, v := range orig {
		if sub.VertexWeight(i) != int64(v) {
			t.Errorf("vertex weight not carried: sub[%d]=%d want %d", i, sub.VertexWeight(i), v)
		}
	}
}

func TestSignatureDetectsDifferences(t *testing.T) {
	g1 := New(3)
	g1.MustAddEdge(0, 1)
	g2 := New(3)
	g2.MustAddEdge(0, 1)
	if g1.Signature() != g2.Signature() {
		t.Error("identical graphs have different signatures")
	}
	g2.MustAddEdge(1, 2)
	if g1.Signature() == g2.Signature() {
		t.Error("different edge sets share a signature")
	}
	g3 := New(3)
	g3.MustAddWeightedEdge(0, 1, 2)
	if g1.Signature() == g3.Signature() {
		t.Error("different weights share a signature")
	}
	g4 := New(3)
	g4.MustAddEdge(0, 1)
	if err := g4.SetVertexWeight(2, 5); err != nil {
		t.Fatal(err)
	}
	if g1.Signature() == g4.Signature() {
		t.Error("different vertex weights share a signature")
	}
}

func TestSignatureWithinIgnoresOutside(t *testing.T) {
	within := []bool{true, true, false}
	g1 := New(3)
	g1.MustAddEdge(0, 1)
	g2 := g1.Clone()
	g2.MustAddEdge(1, 2) // outside edge only
	if g1.SignatureWithin(within) != g2.SignatureWithin(within) {
		t.Error("SignatureWithin changed by edge leaving the set")
	}
	g2.MustAddWeightedEdge(0, 2, 3)
	if g1.SignatureWithin(within) != g2.SignatureWithin(within) {
		t.Error("SignatureWithin changed by cut edge")
	}
}

func TestCutEdgesAndWeight(t *testing.T) {
	g := New(4)
	g.MustAddWeightedEdge(0, 1, 1)
	g.MustAddWeightedEdge(1, 2, 5)
	g.MustAddWeightedEdge(2, 3, 1)
	g.MustAddWeightedEdge(0, 3, 2)
	side := []bool{true, true, false, false}
	cut := g.CutEdges(side)
	if len(cut) != 2 {
		t.Fatalf("cut size = %d, want 2", len(cut))
	}
	if w := g.CutWeight(side); w != 7 {
		t.Errorf("cut weight = %d, want 7", w)
	}
}

func TestGenerators(t *testing.T) {
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) should fail")
	}
	if m := Complete(6).M(); m != 15 {
		t.Errorf("K6 edges = %d, want 15", m)
	}
	if m := Star(5).M(); m != 4 {
		t.Errorf("star edges = %d, want 4", m)
	}
	kb := CompleteBipartite(3, 4)
	if kb.M() != 12 {
		t.Errorf("K3,4 edges = %d, want 12", kb.M())
	}
	if kb.HasEdge(0, 1) {
		t.Error("K3,4 has an intra-side edge")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := RandomRegular(20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("vertex %d has degree %d, want 3", v, g.Degree(v))
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Error("d >= n accepted")
	}
}

func TestHamiltonianGnpContainsCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, order := HamiltonianGnp(10, 0.1, rng)
	for i := range order {
		u, v := order[i], order[(i+1)%len(order)]
		if !g.HasEdge(u, v) {
			t.Fatalf("planted cycle edge {%d,%d} missing", u, v)
		}
	}
}

func TestGnpProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	empty := Gnp(10, 0, rng)
	if empty.M() != 0 {
		t.Errorf("Gnp(p=0) has %d edges", empty.M())
	}
	full := Gnp(10, 1, rng)
	if full.M() != 45 {
		t.Errorf("Gnp(p=1) has %d edges, want 45", full.M())
	}
}

// Property: for any simple graph built from a random edge mask, the degree
// sum equals twice the edge count, and BFS from any vertex reaches exactly
// its component.
func TestQuickDegreeSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Gnp(9, 0.4, rng)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		if sum != 2*g.M() {
			return false
		}
		comp, _ := g.Components()
		dist := g.BFS(0)
		for v := range dist {
			reached := dist[v] >= 0
			sameComp := comp[v] == comp[0]
			if reached != sameComp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Power(g, diameter) of a connected graph is complete.
func TestQuickPowerComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Gnp(8, 0.5, rng)
		if !g.IsConnected() {
			return true // vacuous
		}
		d := g.Diameter()
		p := g.Power(d)
		return p.M() == g.N()*(g.N()-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSetEdgeWeightOutOfRange(t *testing.T) {
	// Regression: SetEdgeWeight used to index g.adj[u] without a bounds
	// check and panicked on out-of-range endpoints.
	g := New(3)
	g.MustAddEdge(0, 1)
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 3}, {5, 7}} {
		if err := g.SetEdgeWeight(pair[0], pair[1], 2); err == nil {
			t.Errorf("SetEdgeWeight(%d,%d) accepted out-of-range vertex", pair[0], pair[1])
		}
	}
	if err := g.SetEdgeWeight(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 2 {
		t.Errorf("weight = %d, want 2", w)
	}
}

func TestFreezeMatchesUnfrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Gnp(20, 0.3, rng)
	// Record unfrozen answers, freeze, and re-ask everything.
	type q struct {
		u, v int
		has  bool
		w    int64
	}
	var queries []q
	for u := -1; u <= g.N(); u++ {
		for v := -1; v <= g.N(); v++ {
			w, _ := g.EdgeWeight(u, v)
			queries = append(queries, q{u: u, v: v, has: g.HasEdge(u, v), w: w})
		}
	}
	edgesBefore := g.Edges()
	c := g.Freeze()
	if c != g.Freeze() {
		t.Error("Freeze not cached")
	}
	for _, qq := range queries {
		if g.HasEdge(qq.u, qq.v) != qq.has {
			t.Fatalf("frozen HasEdge(%d,%d) disagrees", qq.u, qq.v)
		}
		if w, _ := g.EdgeWeight(qq.u, qq.v); w != qq.w {
			t.Fatalf("frozen EdgeWeight(%d,%d) = %d, want %d", qq.u, qq.v, w, qq.w)
		}
	}
	edgesAfter := g.Edges()
	if len(edgesBefore) != len(edgesAfter) {
		t.Fatalf("edge count changed after freeze: %d vs %d", len(edgesBefore), len(edgesAfter))
	}
	for i := range edgesBefore {
		if edgesBefore[i] != edgesAfter[i] {
			t.Fatalf("edge %d changed after freeze: %+v vs %+v", i, edgesBefore[i], edgesAfter[i])
		}
	}
	// CSR accessors agree with the graph.
	for v := 0; v < g.N(); v++ {
		if c.Degree(v) != g.Degree(v) {
			t.Fatalf("CSR degree mismatch at %d", v)
		}
	}
}

func TestFreezeInvalidatedByMutation(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.Freeze()
	g.MustAddEdge(2, 3) // must invalidate the snapshot
	if !g.HasEdge(2, 3) {
		t.Error("edge added after freeze not visible")
	}
	if len(g.Edges()) != 2 {
		t.Errorf("edges = %d, want 2", len(g.Edges()))
	}
	g.Freeze()
	if err := g.SetEdgeWeight(0, 1, 9); err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 9 {
		t.Errorf("weight after SetEdgeWeight on frozen graph = %d, want 9", w)
	}
	g.Freeze()
	v := g.AddVertex()
	if g.N() != 5 || v != 4 {
		t.Fatalf("AddVertex after freeze: n=%d v=%d", g.N(), v)
	}
	if g.HasEdge(4, 0) {
		t.Error("phantom edge on fresh vertex")
	}
}

func TestStructuralHashesTrackSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	within := make([]bool, 12)
	for v := range within {
		within[v] = v%3 != 0
	}
	side := make([]bool, 12)
	for v := range side {
		side[v] = v < 6
	}
	sigToHash := map[string]uint64{}
	hashToSig := map[uint64]string{}
	cutToHash := map[string]uint64{}
	for trial := 0; trial < 40; trial++ {
		g := Gnp(12, 0.35, rng)
		sig := g.SignatureWithin(within)
		h := g.HashWithin(within)
		cutSig := fmt.Sprintf("%v", g.CutEdges(side))
		cut := g.CutHash(side)
		if prev, ok := sigToHash[sig]; ok && prev != h {
			t.Fatal("equal signatures, different hashes")
		}
		if prev, ok := hashToSig[h]; ok && prev != sig {
			t.Fatal("hash collision between distinct signatures")
		}
		if prev, ok := cutToHash[cutSig]; ok && prev != cut {
			t.Fatal("equal cut lists, different cut hashes")
		}
		sigToHash[sig] = h
		hashToSig[h] = sig
		cutToHash[cutSig] = cut
	}
}

// TestClearMatchesNew: a cleared graph of either kind, rebuilt, equals
// the same build on a fresh graph, whatever the cleared graph held
// (more or fewer vertices, vertex weights, a frozen or patchable
// snapshot, a journal and an undo log).
func TestClearMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, d := New(0), NewDigraph(0)
	for _, n := range []int{9, 4, 12, 1, 7} {
		fresh, freshD := Gnp(n, 0.4, rng), RandomDigraph(n, 0.3, rng)
		g.Clear(n)
		for _, e := range fresh.Edges() {
			g.MustAddWeightedEdge(e.U, e.V, e.Weight)
		}
		d.Clear(n)
		for _, a := range freshD.Arcs() {
			d.MustAddWeightedArc(a.From, a.To, a.Weight)
		}
		if got, want := fmt.Sprint(g.Edges(), g.N(), g.TotalVertexWeight()), fmt.Sprint(fresh.Edges(), fresh.N(), fresh.TotalVertexWeight()); got != want {
			t.Fatalf("n=%d: cleared graph rebuilt to %s, fresh build is %s", n, got, want)
		}
		if got, want := d.String()+fmt.Sprint(d.Arcs(), d.Underlying().TotalVertexWeight()), freshD.String()+fmt.Sprint(freshD.Arcs(), freshD.Underlying().TotalVertexWeight()); got != want {
			t.Fatalf("n=%d: cleared digraph rebuilt to %s, fresh build is %s", n, got, want)
		}
		for v := 0; v < n; v++ {
			if len(d.InNeighbors(v)) != len(freshD.InNeighbors(v)) {
				t.Fatalf("n=%d: cleared digraph has in-degree %d at %d, fresh build %d", n, len(d.InNeighbors(v)), v, len(freshD.InNeighbors(v)))
			}
		}
		// Leave state behind for the next Clear to drop.
		g.Freeze()
		g.StartJournal()
		g.MarkBase()
		d.FreezePatchable()
		d.StartJournal()
		if n > 0 {
			if err := g.SetVertexWeight(0, 5); err != nil {
				t.Fatal(err)
			}
			if err := d.SetVertexWeight(n-1, 9); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(g.Journal()) != 0 || len(g.VertexJournal()) != 2 {
		t.Fatalf("journal before Clear: %d edge, %d vertex entries", len(g.Journal()), len(g.VertexJournal()))
	}
	g.Clear(3)
	if err := g.SetVertexWeight(0, 2); err != nil {
		t.Fatal(err)
	}
	if len(g.VertexJournal()) != 0 {
		t.Errorf("Clear left journaling on: %d vertex entries after a weight change", len(g.VertexJournal()))
	}
	if err := g.Reset(); err != nil || g.VertexWeight(0) != 2 {
		t.Errorf("Clear left the undo log on: Reset gave err %v, weight %d, want nil and 2", err, g.VertexWeight(0))
	}
}
