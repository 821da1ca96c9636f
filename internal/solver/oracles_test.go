package solver

import (
	"math/rand"
	"strings"
	"testing"

	"congesthard/internal/graph"
)

// TestOraclesReusedAcrossSizesAgreeWithFreshCalls drives one oracle of
// each kind across random graphs of varying sizes — the arena-reuse
// pattern the verification workers rely on — and checks every verdict
// against a freshly constructed package-level call.
func TestOraclesReusedAcrossSizesAgreeWithFreshCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var mds MDSOracle
	var cut MaxCutOracle
	var mis MaxISOracle
	var steiner SteinerOracle
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		g := graph.Gnp(n, 0.4, rng)
		for v := 0; v < n; v++ {
			if err := g.SetVertexWeight(v, int64(rng.Intn(3)+1)); err != nil {
				t.Fatal(err)
			}
		}

		size := 1 + rng.Intn(n)
		gotMDS, err := mds.HasDominatingSetOfSize(g, size)
		if err != nil {
			t.Fatal(err)
		}
		wantMDS, err := HasDominatingSetOfSize(g, size)
		if err != nil {
			t.Fatal(err)
		}
		if gotMDS != wantMDS {
			t.Fatalf("trial %d: MDS oracle %v, fresh %v (n=%d size=%d)", trial, gotMDS, wantMDS, n, size)
		}

		best, _, err := MaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int64{best - 1, best, best + 1} {
			gotCut, err := cut.HasCutOfWeight(g, target)
			if err != nil {
				t.Fatal(err)
			}
			if want := best >= target; gotCut != want {
				t.Fatalf("trial %d: cut oracle(target=%d) %v, want %v (best %d)", trial, target, gotCut, want, best)
			}
		}

		wWant, _, err := MaxWeightIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		wGot, _, err := mis.MaxWeightIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if wGot != wWant {
			t.Fatalf("trial %d: MaxIS oracle %d, fresh %d", trial, wGot, wWant)
		}
		aWant, _, err := MaxIndependentSetSize(g)
		if err != nil {
			t.Fatal(err)
		}
		aGot, _, err := mis.MaxIndependentSetSize(g)
		if err != nil {
			t.Fatal(err)
		}
		if aGot != aWant {
			t.Fatalf("trial %d: alpha oracle %d, fresh %d", trial, aGot, aWant)
		}

		terminals := []int{0, n - 1, n / 2}
		maxEdges := 1 + rng.Intn(n)
		gotST, errGot := steiner.HasSteinerTreeWithEdges(g, terminals, maxEdges)
		wantST, errWant := HasSteinerTreeWithEdges(g, terminals, maxEdges)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: steiner errors diverge: %v vs %v", trial, errGot, errWant)
		}
		if errGot == nil && gotST != wantST {
			t.Fatalf("trial %d: steiner oracle %v, fresh %v", trial, gotST, wantST)
		}
	}
}

// TestDirSteinerOracleAgreesWithFreshCalls drives one DirSteinerOracle
// across random sparse digraphs of varying sizes (mixed zero- and
// positive-weight arcs, like the Figure 6 instances) and checks every
// verdict against the independent full enumeration DirectedSteinerEnum,
// then checks that out-of-range roots and terminals are rejected by a
// fresh oracle and by one warmed on a larger digraph.
func TestDirSteinerOracleAgreesWithFreshCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var oracle DirSteinerOracle
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		d := graph.NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.25 {
					w := int64(rng.Intn(3)) // weights 0..2, many free arcs
					d.MustAddWeightedArc(u, v, w)
				}
			}
		}
		root := rng.Intn(n)
		terminals := []int{rng.Intn(n), rng.Intn(n)}
		budget := int64(rng.Intn(4))
		got, err := oracle.HasDirectedSteinerWithin(d, root, terminals, budget)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := dirSteinerWithinRef(t, d, root, terminals, budget)
		if got != want {
			t.Fatalf("trial %d: oracle %v, enumeration %v (n=%d root=%d terms=%v budget=%d)",
				trial, got, want, n, root, terminals, budget)
		}
	}

	small := graph.NewDigraph(3)
	small.MustAddArc(0, 1)
	warm := new(DirSteinerOracle)
	if _, err := warm.HasDirectedSteinerWithin(graph.NewDigraph(8), 0, []int{5}, 1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		oracle    *DirSteinerOracle
		root      int
		terminals []int
	}{
		{"fresh oracle, terminal 5 on n=3", new(DirSteinerOracle), 0, []int{5}},
		{"fresh oracle, terminal -1 on n=3", new(DirSteinerOracle), 0, []int{-1}},
		{"oracle warmed on n=8, terminal 5 on n=3", warm, 0, []int{1, 5}},
		{"oracle warmed on n=8, root 7 on n=3", warm, 7, nil},
	}
	for _, tc := range cases {
		got, err := tc.oracle.HasDirectedSteinerWithin(small, tc.root, tc.terminals, 1)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: got (%v, %v), want an out-of-range error", tc.name, got, err)
		}
	}
}

// dirSteinerWithinRef decides "a directed Steiner tree within budget"
// from DirectedSteinerEnum's minimum; unreachable terminals mean no.
func dirSteinerWithinRef(t testing.TB, d *graph.Digraph, root int, terminals []int, budget int64) bool {
	t.Helper()
	w, err := DirectedSteinerEnum(d, root, terminals)
	if err != nil {
		if strings.Contains(err.Error(), "not reachable") {
			return false
		}
		t.Fatal(err)
	}
	return w <= budget
}
