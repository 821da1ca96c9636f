package hamlb

import (
	"math/rand"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

func TestNewValidation(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5} {
		if _, err := New(k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestStructureCounts(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 6+8+2*(2+12) {
		t.Errorf("N = %d, want 42", f.N())
	}
	if f.Boxes() != 2 {
		t.Errorf("boxes = %d, want 2", f.Boxes())
	}
	d, err := f.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}
	// start has exactly one out-arc (to g_0) and none in.
	if d.OutDegree(f.Start()) != 1 || d.InDegree(f.Start()) != 0 {
		t.Error("start arc structure wrong")
	}
	if d.OutDegree(f.End()) != 0 {
		t.Error("end must be a sink")
	}
	if !d.HasArc(f.Start(), f.G(0)) {
		t.Error("start -> g_0 missing")
	}
}

func mustWheel(t *testing.T, f *Family, c int, q Q, d int) int {
	t.Helper()
	v, err := f.Wheel(c, q, d)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestWheelAliasing(t *testing.T) {
	f, _ := New(4)
	// Box 0 handles bit 0 of A1/B1. Lane q=t slots 0..1 are the A1
	// vertices with bit0 = 1, i.e. indices 1, 3.
	if got := mustWheel(t, f, 0, QT, 0); got != f.A1(1) {
		t.Errorf("wheel(0,t,0) = %d, want a1[1]=%d", got, f.A1(1))
	}
	if got := mustWheel(t, f, 0, QT, 1); got != f.A1(3) {
		t.Errorf("wheel(0,t,1) = %d, want a1[3]", got)
	}
	// Slots k/2.. are B1 with bit0 = 1.
	if got := mustWheel(t, f, 0, QT, 2); got != f.B1(1) {
		t.Errorf("wheel(0,t,2) = %d, want b1[1]", got)
	}
	// Lane q=f slot 0: bit0 = 0 -> index 0.
	if got := mustWheel(t, f, 0, QF, 0); got != f.A1(0) {
		t.Errorf("wheel(0,f,0) = %d, want a1[0]", got)
	}
	// Box logk = 2 handles bit 0 of A2/B2.
	if got := mustWheel(t, f, 2, QT, 0); got != f.A2(1) {
		t.Errorf("wheel(2,t,0) = %d, want a2[1]", got)
	}
	// Every row vertex appears as a wheel exactly log(k) times.
	count := make(map[int]int)
	for c := 0; c < f.Boxes(); c++ {
		for _, q := range []Q{QT, QF} {
			for d := 0; d < 4; d++ {
				count[mustWheel(t, f, c, q, d)]++
			}
		}
	}
	for i := 0; i < 4; i++ {
		for _, v := range []int{f.A1(i), f.A2(i), f.B1(i), f.B2(i)} {
			if count[v] != 2 {
				t.Errorf("row vertex %d wheels %d times, want logk=2", v, count[v])
			}
		}
	}
}

func TestCutIsLogarithmic(t *testing.T) {
	f, _ := New(4)
	stats, err := lbfamily.MeasureStats(f)
	if err != nil {
		t.Fatal(err)
	}
	// O(log k): a constant number of arcs per box plus the s21 -> s12 arc.
	maxCut := 14*f.Boxes() + 2
	if stats.CutSize > maxCut {
		t.Errorf("cut size = %d, want <= %d", stats.CutSize, maxCut)
	}
}

// TestTheorem22Exhaustive machine-checks Claims 2.1-2.5 at k=2: over all
// 256 input pairs a directed Hamiltonian path exists iff the inputs
// intersect, and the Definition 1.1 structural conditions hold.
func TestTheorem22Exhaustive(t *testing.T) {
	f, _ := New(2)
	if err := lbfamily.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestCycleFamilyClaim26 checks the cycle variant on a sample of inputs:
// the cycle graph has a directed Hamiltonian cycle iff the path graph has
// a directed Hamiltonian path iff DISJ = FALSE.
func TestCycleFamilyClaim26(t *testing.T) {
	c, err := NewCycle(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		d, err := c.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Predicate(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := x.Intersects(y); got != want {
			t.Fatalf("cycle predicate %v, want %v (x=%s y=%s)", got, want, x, y)
		}
	}
}

func TestCycleFamilySideConsistent(t *testing.T) {
	c, _ := NewCycle(2)
	side := c.AliceSide()
	if len(side) != c.Path.N()+1 {
		t.Fatalf("side length %d", len(side))
	}
	if !side[c.Middle()] {
		t.Error("middle should be on Alice's side")
	}
}

// TestLemma22UndirectedCycle verifies the YES direction of the split
// reduction on the actual construction: a directed Hamiltonian cycle maps
// to an explicit undirected Hamiltonian cycle of the split graph
// (v -> v_in, v_mid, v_out). The iff itself is validated on random small
// digraphs by the solver package's reduction-agreement test; full
// undirected search on the 129-vertex split graph is out of reach for the
// exact solver.
func TestLemma22UndirectedCycle(t *testing.T) {
	c, _ := NewCycle(2)
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for trial := 0; trial < 20 && checked < 5; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		if !x.Intersects(y) {
			continue
		}
		checked++
		d, err := c.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		cycle, found, err := solver.DirectedHamiltonianCycle(d)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatal("directed cycle missing on intersecting inputs")
		}
		split := UndirectedCycleGraph(d)
		undirected := make([]int, 0, 3*len(cycle))
		for _, v := range cycle {
			undirected = append(undirected, 3*v, 3*v+1, 3*v+2)
		}
		if !solver.IsHamiltonianCycle(split, undirected) {
			t.Fatal("mapped cycle invalid in split graph")
		}
	}
	if checked == 0 {
		t.Fatal("no intersecting samples")
	}
}

// TestLemma23CycleToPath verifies the cycle-to-path reduction on random
// small graphs: the transformed graph has a Hamiltonian path iff the
// original has a Hamiltonian cycle.
func TestLemma23CycleToPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		g := graph.Gnp(8, 0.45, rng)
		_, wantCycle, err := solver.HamiltonianCycle(g)
		if err != nil {
			t.Fatal(err)
		}
		transformed, err := PathFromCycleGraph(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, gotPath, err := solver.HamiltonianPath(transformed)
		if err != nil {
			t.Fatal(err)
		}
		if gotPath != wantCycle {
			t.Fatalf("trial %d: HC %v but transformed HP %v", trial, wantCycle, gotPath)
		}
	}
}

func TestPathFromCycleGraphValidation(t *testing.T) {
	if _, err := PathFromCycleGraph(graph.Path(3), 9); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

// TestClaim27TwoECSS verifies Claim 2.7 independently of the solver
// shortcut: on random graphs, a 2-ECSS with exactly n edges (found by
// enumeration) exists iff a Hamiltonian cycle exists.
func TestClaim27TwoECSS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trials := 0
	for trials < 25 {
		g := graph.Gnp(7, 0.45, rng)
		if g.M() > 16 {
			continue
		}
		trials++
		viaEnum, err := solver.BruteTwoECSSWithEdges(g, g.N())
		if err != nil {
			t.Fatal(err)
		}
		_, viaHC, err := solver.HamiltonianCycle(g)
		if err != nil {
			t.Fatal(err)
		}
		if viaEnum != viaHC {
			t.Fatalf("Claim 2.7 violated: enum %v, HC %v", viaEnum, viaHC)
		}
	}
}

func TestBuildRejectsWrongLength(t *testing.T) {
	f, _ := New(2)
	if _, err := f.Build(comm.NewBits(5), comm.NewBits(4)); err == nil {
		t.Error("wrong input length accepted")
	}
}

// TestMalformedWheelSurfacesAsError is the regression test for the former
// panic at the wheel-slot resolution: a malformed parameterization (k not
// a power of two, bypassing New's validation) must surface as an error
// from Wheel/BuildFixed/Build — a verification failure — instead of
// crashing the verifier's worker pool.
func TestMalformedWheelSurfacesAsError(t *testing.T) {
	bad := &Family{k: 3, logK: 1} // only reachable by skipping New
	if _, err := bad.Wheel(0, QT, 2); err == nil {
		t.Error("unresolvable wheel slot did not error")
	}
	if _, err := bad.BuildFixed(); err == nil {
		t.Error("BuildFixed on malformed family did not error")
	}
	if _, err := bad.Build(comm.NewBits(9), comm.NewBits(9)); err == nil {
		t.Error("Build on malformed family did not error")
	}
}
