package solver

import (
	"math/rand"
	"testing"

	"congesthard/internal/graph"
)

func TestMinDominatingSetSmallKnown(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
		want  int64
	}{
		{name: "single vertex", build: func() *graph.Graph { return graph.New(1) }, want: 1},
		{name: "two isolated", build: func() *graph.Graph { return graph.New(2) }, want: 2},
		{name: "star", build: func() *graph.Graph { return graph.Star(6) }, want: 1},
		{name: "path4", build: func() *graph.Graph { return graph.Path(4) }, want: 2},
		{name: "path7", build: func() *graph.Graph { return graph.Path(7) }, want: 3},
		{name: "K5", build: func() *graph.Graph { return graph.Complete(5) }, want: 1},
		{name: "cycle6", build: func() *graph.Graph { c, _ := graph.Cycle(6); return c }, want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			w, set, err := MinDominatingSet(g)
			if err != nil {
				t.Fatal(err)
			}
			if w != tc.want {
				t.Errorf("weight = %d, want %d", w, tc.want)
			}
			if !IsDominatingSet(g, set) {
				t.Error("returned set not dominating")
			}
		})
	}
}

func TestMinDominatingSetAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		g := graph.Gnp(11, 0.25, rng)
		for v := 0; v < g.N(); v++ {
			if err := g.SetVertexWeight(v, 1+rng.Int63n(5)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := BruteMinDominatingSetWeight(g)
		if err != nil {
			t.Fatal(err)
		}
		got, set, err := MinDominatingSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: MinDominatingSet = %d, brute = %d", trial, got, want)
		}
		if !IsDominatingSet(g, set) {
			t.Fatalf("trial %d: set not dominating", trial)
		}
	}
}

func TestHasDominatingSetOfSize(t *testing.T) {
	g := graph.Path(7) // MDS size 3
	ok, err := HasDominatingSetOfSize(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("size-3 dominating set exists but not found")
	}
	ok, err = HasDominatingSetOfSize(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("size-2 dominating set claimed on P7")
	}
}

func TestHasDominatingSetIgnoresWeights(t *testing.T) {
	g := graph.Star(5)
	if err := g.SetVertexWeight(0, 100); err != nil {
		t.Fatal(err)
	}
	ok, err := HasDominatingSetOfSize(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("cardinality query must ignore vertex weights")
	}
}

func TestMinDominatingSetWithinPrunes(t *testing.T) {
	g := graph.Path(7)
	_, _, found, err := MinDominatingSetWithin(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("cap 2 found a set on P7 (needs 3)")
	}
	w, set, found, err := MinDominatingSetWithin(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !found || w != 3 || !IsDominatingSet(g, set) {
		t.Errorf("cap 3: found=%v w=%d", found, w)
	}
}

func TestWeightedMDSPrefersLightVertices(t *testing.T) {
	// Star where the center is expensive: covering with all leaves (weight
	// 5) beats the center (weight 10).
	g := graph.Star(6)
	if err := g.SetVertexWeight(0, 10); err != nil {
		t.Fatal(err)
	}
	w, _, err := MinDominatingSet(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 5 {
		t.Errorf("weighted MDS = %d, want 5 (all leaves)", w)
	}
}

func TestMinKDominatingSet(t *testing.T) {
	g := graph.Path(9)
	// 2-domination of P9: vertex 2 covers 0..4, vertex 6 covers 4..8.
	w, set, err := MinKDominatingSet(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("2-MDS weight on P9 = %d, want 2", w)
	}
	if !IsKDominatingSet(g, set, 2) {
		t.Error("returned set does not 2-dominate")
	}
	if _, _, err := MinKDominatingSet(g, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestIsKDominatingSet(t *testing.T) {
	g := graph.Path(5)
	if !IsKDominatingSet(g, []int{2}, 2) {
		t.Error("center should 2-dominate P5")
	}
	if IsKDominatingSet(g, []int{0}, 2) {
		t.Error("endpoint should not 2-dominate P5")
	}
	if IsKDominatingSet(g, nil, 3) {
		t.Error("empty set dominates nothing")
	}
	if !IsKDominatingSet(graph.New(0), nil, 1) {
		t.Error("empty graph should be dominated vacuously")
	}
}

func TestIsDominatingSetValidation(t *testing.T) {
	g := graph.Path(3)
	if IsDominatingSet(g, []int{5}) {
		t.Error("out-of-range vertex accepted")
	}
	if !IsDominatingSet(g, []int{1}) {
		t.Error("center of P3 dominates everything")
	}
	if IsDominatingSet(g, []int{0}) {
		t.Error("endpoint of P3 does not dominate vertex 2")
	}
}

// TestMDSOracleAcrossSizes reuses one MDSOracle on graphs whose sizes
// cross the 64-vertex bitset word both ways, so its arena is resliced
// down to fewer words and grown back: every answer must match the
// known domination number. Each graph is a disjoint union of stars
// (γ = the number of stars), and the oracle may grow only while the
// sizes exceed every earlier one.
func TestMDSOracleAcrossSizes(t *testing.T) {
	stars := func(sizes ...int) *graph.Graph {
		n := 0
		for _, s := range sizes {
			n += s
		}
		g := graph.New(n)
		base := 0
		for _, s := range sizes {
			for leaf := 1; leaf < s; leaf++ {
				g.MustAddEdge(base, base+leaf)
			}
			base += s
		}
		return g
	}
	cases := [][]int{{40, 30}, {3, 2}, {50, 50, 30}, {33, 33}, {4, 4, 1}, {40, 30}, {130}}
	var o MDSOracle
	for _, sizes := range cases {
		g := stars(sizes...)
		gamma := len(sizes)
		for _, q := range []struct {
			size int
			want bool
		}{{gamma, true}, {gamma - 1, false}} {
			got, err := o.HasDominatingSetOfSize(g, q.size)
			if err != nil || got != q.want {
				t.Fatalf("stars %v (n=%d): size %d answered (%v, %v), want %v", sizes, g.N(), q.size, got, err, q.want)
			}
		}
	}
	small, large := stars(4, 4, 1), stars(50, 50, 30)
	if allocs := testing.AllocsPerRun(5, func() {
		_, _ = o.HasDominatingSetOfSize(small, 3)
		_, _ = o.HasDominatingSetOfSize(large, 3)
	}); allocs != 0 {
		t.Errorf("alternating a 9- and a 130-vertex query allocated %v times, want 0 once grown", allocs)
	}
}
