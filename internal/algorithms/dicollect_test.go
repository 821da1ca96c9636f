package algorithms

import (
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// runDiCollect builds the factory, runs the simulation and returns the
// summed root values.
func runDiCollect(t *testing.T, d *graph.Digraph, spec DiCollectSpec) (int64, *congest.Result) {
	t.Helper()
	factory, budget, err := DiCollectFactory(d, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := congest.Run(d, factory, congest.Options{MaxRounds: budget + 4})
	if err != nil {
		t.Fatal(err)
	}
	total, err := DiCollectTotal(res)
	if err != nil {
		t.Fatal(err)
	}
	return total, res
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
	total, _ := runDiCollect(t, d, DiCollectSpec{
		Eval: func(collected *graph.Digraph) (int64, error) {
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
		},
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
	total, res := runDiCollect(t, d, DiCollectSpec{
		Eval: func(collected *graph.Digraph) (int64, error) {
			return int64(collected.M()), nil
		},
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
	total, _ := runDiCollect(t, d, DiCollectSpec{
		Eval: func(collected *graph.Digraph) (int64, error) {
			if collected.N() != 4 || !collected.HasArc(2, 3) || collected.HasArc(3, 2) {
				return 0, nil
			}
			return 1, nil
		},
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
	total, _ := runDiCollect(t, d, DiCollectSpec{
		Keep: func(from, to int, w int64) bool { return w >= 5 },
		Eval: func(collected *graph.Digraph) (int64, error) {
			return int64(collected.M()), nil
		},
	})
	if total != 2 {
		t.Errorf("filtered collection kept %d arcs, want 2", total)
	}

	// A filtered collect on a weakly disconnected digraph must be refused.
	disc := graph.NewDigraph(3)
	disc.MustAddArc(0, 1)
	if _, _, err := DiCollectFactory(disc, 0, DiCollectSpec{
		Keep: func(int, int, int64) bool { return true },
		Eval: func(*graph.Digraph) (int64, error) { return 0, nil },
	}); err == nil {
		t.Error("filtered collect accepted a weakly disconnected digraph")
	}
}

func TestDiCollectRejectsNegativeWeights(t *testing.T) {
	d := graph.NewDigraph(2)
	d.MustAddWeightedArc(0, 1, -3)
	if _, _, err := DiCollectFactory(d, 0, DiCollectSpec{
		Eval: func(*graph.Digraph) (int64, error) { return 0, nil },
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
