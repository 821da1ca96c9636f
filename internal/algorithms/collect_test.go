package algorithms

import (
	"math/rand"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// runCollect runs the gossip collect program on g and returns the summed
// root values plus the run result.
func runCollect[G Kind](t *testing.T, g G, spec CollectSpec[G]) (int64, *congest.Result) {
	t.Helper()
	factory, budget, err := CollectFactory(g, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := congest.Run(g, factory, congest.Options{MaxRounds: budget + 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != budget+1 {
		t.Errorf("rounds = %d, want budget+1 = %d", res.Rounds, budget+1)
	}
	total, err := CollectTotal(res)
	if err != nil {
		t.Fatal(err)
	}
	return total, res
}

func TestCollectReconstructsGraphExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*graph.Graph{graph.Path(9), graph.Star(8), graph.Complete(7)}
	for n := 6; n <= 14; n += 4 {
		g := graph.Gnp(n, 0.4, rng)
		for !g.IsConnected() {
			g = graph.Gnp(n, 0.4, rng)
		}
		cases = append(cases, g)
		w := graph.GnpWeighted(n, 0.5, 1000, rng)
		for !w.IsConnected() {
			w = graph.GnpWeighted(n, 0.5, 1000, rng)
		}
		cases = append(cases, w)
	}
	for i, g := range cases {
		want := g.Signature()
		total, _ := runCollect(t, g, CollectSpec[*graph.Graph]{
			Eval: Stateless(func(collected *graph.Graph) (int64, error) {
				// A connected graph has one root whose component is the
				// whole graph, reindexed by the identity.
				if collected.Signature() == want {
					return 1, nil
				}
				return 0, nil
			}),
		})
		if total != 1 {
			t.Errorf("case %d (%v): root reconstruction differs from the input graph", i, g)
		}
	}
}

func TestCollectDisconnectedComponents(t *testing.T) {
	// Two components: a triangle {0,1,2} and an edge {3,4}, plus the
	// isolated vertex 5. Each component's minimum-id vertex evaluates its
	// own component; the values (here, vertex counts) sum to n.
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(3, 4)
	total, res := runCollect(t, g, CollectSpec[*graph.Graph]{
		Eval: Stateless(func(component *graph.Graph) (int64, error) {
			return int64(component.N()), nil
		}),
	})
	if total != 6 {
		t.Errorf("component sizes sum to %d, want 6", total)
	}
	roots := 0
	for v, out := range res.Outputs {
		if c, ok := out.(collectOutput); ok && c.root {
			roots++
			if v != 0 && v != 3 && v != 5 {
				t.Errorf("vertex %d claims root status", v)
			}
		}
	}
	if roots != 3 {
		t.Errorf("%d roots, want 3 (one per component)", roots)
	}
}

func TestCollectKeepFilter(t *testing.T) {
	// Keep only even-weight edges of a weighted graph: the sole root must
	// see exactly the filtered edge set, while messages still travel over
	// all edges of the communication graph.
	rng := rand.New(rand.NewSource(3))
	g := graph.GnpWeighted(10, 0.6, 50, rng)
	for !g.IsConnected() {
		g = graph.GnpWeighted(10, 0.6, 50, rng)
	}
	keep := func(u, v int, w int64) bool { return w%2 == 0 }
	wantKept := 0
	for _, e := range g.Edges() {
		if keep(e.U, e.V, e.Weight) {
			wantKept++
		}
	}
	total, _ := runCollect(t, g, CollectSpec[*graph.Graph]{
		Keep: keep,
		Eval: Stateless(func(collected *graph.Graph) (int64, error) {
			if collected.M() != wantKept {
				return 0, nil
			}
			for _, e := range collected.Edges() {
				w, exists := g.EdgeWeight(e.U, e.V)
				if !exists || w != e.Weight || !keep(e.U, e.V, e.Weight) {
					return 0, nil
				}
			}
			return 1, nil
		}),
	})
	if total != 1 {
		t.Error("filtered collection does not match the kept edge set")
	}
}

func TestCollectRejectsBadInputs(t *testing.T) {
	keepAll := func(int, int, int64) bool { return true }
	if _, _, err := CollectFactory(graph.New(0), 0, CollectSpec[*graph.Graph]{}); err == nil {
		t.Error("empty graph accepted")
	}
	disconnected := graph.New(4)
	disconnected.MustAddEdge(0, 1)
	if _, _, err := CollectFactory(disconnected, 0, CollectSpec[*graph.Graph]{Keep: keepAll}); err == nil {
		t.Error("disconnected graph accepted for filtered collection")
	}
	if _, _, err := CollectFactory(graph.Path(20), 3, CollectSpec[*graph.Graph]{}); err == nil {
		t.Error("bandwidth too small for edge ids accepted")
	}
	neg := graph.New(2)
	neg.MustAddWeightedEdge(0, 1, -5)
	if _, _, err := CollectFactory(neg, 0, CollectSpec[*graph.Graph]{}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestDiCollectReconstructsArcsExactly(t *testing.T) {
	// A weighted digraph with antiparallel arcs of distinct weights, zero
	// weights, and arcs against the flow: the root must reconstruct the
	// arc multiset exactly, orientation and weights included.
	d := graph.NewDigraph(6)
	d.MustAddWeightedArc(0, 1, 3)
	d.MustAddWeightedArc(1, 0, 5) // antiparallel, different weight
	d.MustAddWeightedArc(1, 2, 0) // zero weight must survive
	d.MustAddWeightedArc(3, 2, 7)
	d.MustAddWeightedArc(4, 3, 1)
	d.MustAddWeightedArc(4, 5, 9)
	want := d.Arcs()
	total, _ := runCollect(t, d, CollectSpec[*graph.Digraph]{
		Eval: Stateless(func(collected *graph.Digraph) (int64, error) {
			got := collected.Arcs()
			if len(got) != len(want) {
				return 0, nil
			}
			for i := range got {
				if got[i] != want[i] {
					return 0, nil
				}
			}
			return 1, nil
		}),
	})
	if total != 1 {
		t.Error("root did not reconstruct the exact arc list")
	}
}

func TestDiCollectDisconnectedComponentsSum(t *testing.T) {
	// Two weak components (0->1->2 and a 3<->4 pair) plus the isolated
	// vertex 5: each component's min-id vertex roots and the arc counts
	// sum — component-additive quantities certify exactly on disconnected
	// instances.
	d := graph.NewDigraph(6)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 2)
	d.MustAddArc(3, 4)
	d.MustAddArc(4, 3)
	total, res := runCollect(t, d, CollectSpec[*graph.Digraph]{
		Eval: Stateless(func(collected *graph.Digraph) (int64, error) {
			return int64(collected.M()), nil
		}),
	})
	if total != 4 {
		t.Errorf("summed arc count %d, want 4", total)
	}
	roots := 0
	for _, out := range res.Outputs {
		if c, ok := out.(collectOutput); ok && c.root {
			roots++
		}
	}
	if roots != 3 {
		t.Errorf("%d roots, want 3 (two components plus the isolated vertex)", roots)
	}
}

func TestDiCollectSpanningComponentKeepsIDs(t *testing.T) {
	// On a weakly connected digraph the single root's component is the
	// whole instance, reindexed identically — id-sensitive evaluations
	// (like Hamiltonian path endpoints) see the original vertex ids.
	d := graph.NewDigraph(4)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 2)
	d.MustAddArc(2, 3)
	total, _ := runCollect(t, d, CollectSpec[*graph.Digraph]{
		Eval: Stateless(func(collected *graph.Digraph) (int64, error) {
			if collected.N() != 4 || !collected.HasArc(2, 3) || collected.HasArc(3, 2) {
				return 0, nil
			}
			return 1, nil
		}),
	})
	if total != 1 {
		t.Error("spanning component was relabeled")
	}
}

func TestDiCollectKeepFilter(t *testing.T) {
	d := graph.NewDigraph(4)
	d.MustAddWeightedArc(0, 1, 2)
	d.MustAddWeightedArc(1, 2, 4)
	d.MustAddWeightedArc(2, 3, 6)
	d.MustAddWeightedArc(3, 0, 8)
	total, _ := runCollect(t, d, CollectSpec[*graph.Digraph]{
		Keep: func(from, to int, w int64) bool { return w >= 5 },
		Eval: Stateless(func(collected *graph.Digraph) (int64, error) {
			return int64(collected.M()), nil
		}),
	})
	if total != 2 {
		t.Errorf("filtered collection kept %d arcs, want 2", total)
	}

	// A filtered collect on a weakly disconnected digraph must be refused.
	disc := graph.NewDigraph(3)
	disc.MustAddArc(0, 1)
	if _, _, err := CollectFactory(disc, 0, CollectSpec[*graph.Digraph]{
		Keep: func(int, int, int64) bool { return true },
		Eval: Stateless(func(*graph.Digraph) (int64, error) { return 0, nil }),
	}); err == nil {
		t.Error("filtered collect accepted a weakly disconnected digraph")
	}
}

func TestDiCollectRejectsNegativeWeights(t *testing.T) {
	d := graph.NewDigraph(2)
	d.MustAddWeightedArc(0, 1, -3)
	if _, _, err := CollectFactory(d, 0, CollectSpec[*graph.Digraph]{
		Eval: Stateless(func(*graph.Digraph) (int64, error) { return 0, nil }),
	}); err == nil {
		t.Error("negative arc weight accepted")
	}
}

func TestInducedSubdigraphMapping(t *testing.T) {
	d := graph.NewDigraph(5)
	d.MustAddWeightedArc(0, 2, 3)
	d.MustAddWeightedArc(2, 4, 5)
	d.MustAddWeightedArc(1, 2, 7) // dropped: 1 not kept
	if err := d.SetVertexWeight(4, 9); err != nil {
		t.Fatal(err)
	}
	sub, orig := d.InducedSubdigraph(func(v int) bool { return v%2 == 0 })
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced sub-digraph n=%d m=%d, want 3/2", sub.N(), sub.M())
	}
	if orig[0] != 0 || orig[1] != 2 || orig[2] != 4 {
		t.Errorf("origID mapping %v", orig)
	}
	if w, ok := sub.ArcWeight(1, 2); !ok || w != 5 {
		t.Errorf("arc (2,4) not carried over: %v %v", w, ok)
	}
	if sub.VertexWeight(2) != 9 {
		t.Errorf("vertex weight not carried over: %d", sub.VertexWeight(2))
	}
}
