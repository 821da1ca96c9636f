package graph

import (
	"math/rand"
	"testing"
)

// randomToggleSequence drives ToggleEdge with random edge toggles and weight
// updates and cross-checks the patchable snapshot against a freshly built
// dense snapshot after every step.
func TestToggleEdgePatchesSnapshotInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 12
	g := New(n)
	// Seed with a random base graph.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				g.MustAddWeightedEdge(u, v, int64(rng.Intn(5)+1))
			}
		}
	}
	patched := g.FreezePatchable()
	for step := 0; step < 500; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 && g.HasEdge(u, v) {
			if err := g.SetEdgeWeight(u, v, int64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.ToggleEdge(u, v, int64(rng.Intn(5)+1)); err != nil {
			t.Fatal(err)
		}
		if g.patched == nil {
			t.Fatal("patchable snapshot dropped by ToggleEdge")
		}
		patched = g.patched // overflow may have rebuilt it
		fresh := buildCSR(g)
		for a := 0; a < n; a++ {
			if patched.Degree(a) != fresh.Degree(a) {
				t.Fatalf("step %d: degree(%d) = %d, want %d", step, a, patched.Degree(a), fresh.Degree(a))
			}
			nbr, wt := patched.Window(a)
			fnbr, fwt := fresh.Window(a)
			for i := range fnbr {
				if nbr[i] != fnbr[i] || wt[i] != fwt[i] {
					t.Fatalf("step %d: window(%d) diverged", step, a)
				}
			}
		}
		pe, fe := patched.Edges(), fresh.Edges()
		if len(pe) != len(fe) {
			t.Fatalf("step %d: %d edges, want %d", step, len(pe), len(fe))
		}
		for i := range fe {
			if pe[i] != fe[i] {
				t.Fatalf("step %d: edge %d = %+v, want %+v", step, i, pe[i], fe[i])
			}
		}
	}
}

func TestToggleEdgeSemantics(t *testing.T) {
	g := New(4)
	added, err := g.ToggleEdge(0, 1, 7)
	if err != nil || !added {
		t.Fatalf("first toggle: added=%v err=%v", added, err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 7 {
		t.Fatalf("edge weight %d, %v", w, ok)
	}
	added, err = g.ToggleEdge(1, 0, 99)
	if err != nil || added {
		t.Fatalf("second toggle: added=%v err=%v", added, err)
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge survived removal toggle")
	}
	if _, err := g.ToggleEdge(2, 2, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if _, err := g.ToggleEdge(0, 9, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestMarkBaseAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 10
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(2) == 0 {
				g.MustAddWeightedEdge(u, v, int64(rng.Intn(4)+1))
			}
		}
	}
	want := g.Signature()
	g.FreezePatchable()
	g.MarkBase()
	for step := 0; step < 200; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 && g.HasEdge(u, v) {
			if err := g.SetEdgeWeight(u, v, int64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.ToggleEdge(u, v, int64(rng.Intn(4)+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := g.Signature(); got != want {
		t.Fatalf("Reset did not restore the base graph:\n got %s\nwant %s", got, want)
	}
	// The patchable snapshot must have tracked the reset too.
	fresh := buildCSR(g)
	for v := 0; v < n; v++ {
		if g.patched.Degree(v) != fresh.Degree(v) {
			t.Fatalf("patched snapshot stale after Reset at vertex %d", v)
		}
	}
}

// TestIncrementalHashMaintenance is the contract the delta verifier relies
// on: FoldJournal folding journaled EdgeDeltas into previously computed
// SideHashes yields exactly the from-scratch hashes of the mutated graph.
func TestIncrementalHashMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 14
	g := New(n)
	side := make([]bool, n)
	other := make([]bool, n)
	for v := range side {
		side[v] = v%2 == 0
		other[v] = !side[v]
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				g.MustAddWeightedEdge(u, v, int64(rng.Intn(6)+1))
			}
		}
	}
	h := g.SideHashes(side)
	if h != (SideHashes{Cut: g.CutHash(side), A: g.HashWithin(side), B: g.HashWithin(other)}) {
		t.Fatal("SideHashes disagrees with CutHash/HashWithin")
	}
	g.StartJournal()
	for step := 0; step < 300; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 && g.HasEdge(u, v) {
			if err := g.SetEdgeWeight(u, v, int64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.ToggleEdge(u, v, int64(rng.Intn(6)+1)); err != nil {
			t.Fatal(err)
		}
		g.FoldJournal(side, &h)
		if len(g.Journal()) != 0 {
			t.Fatalf("step %d: FoldJournal left the journal uncleared", step)
		}
		if h.Cut != g.CutHash(side) {
			t.Fatalf("step %d: incremental CutHash diverged", step)
		}
		if h.A != g.HashWithin(side) {
			t.Fatalf("step %d: incremental HashWithin(side) diverged", step)
		}
		if h.B != g.HashWithin(other) {
			t.Fatalf("step %d: incremental HashWithin(other) diverged", step)
		}
	}
}

func TestToggleEdgeSteadyStateDoesNotAllocate(t *testing.T) {
	g := New(8)
	for v := 1; v < 8; v++ {
		g.MustAddEdge(0, v)
	}
	g.FreezePatchable()
	g.StartJournal()
	// Warm up: reach peak degree so window slack is settled, and let the
	// journal backing array grow.
	for i := 0; i < 4; i++ {
		g.ToggleEdge(1, 2, 1)
		g.ClearJournal()
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.ToggleEdge(1, 2, 1); err != nil {
			t.Fatal(err)
		}
		g.ClearJournal()
	})
	if allocs > 0 {
		t.Fatalf("steady-state ToggleEdge allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestVertexWeightJournalAndReset covers the vertex-weight side of the
// delta machinery: SetVertexWeight journals remove/add pairs that fold
// into HashWithin exactly, and Reset restores the MarkBase weights.
func TestVertexWeightJournalAndReset(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	if err := g.SetVertexWeight(2, 9); err != nil {
		t.Fatal(err)
	}
	side := []bool{true, true, false, false}
	h := g.SideHashes(side)
	g.StartJournal()
	g.MarkBase()
	steps := [][2]int64{{0, 5}, {2, 1}, {2, 4}, {3, 3}}
	for _, s := range steps {
		if err := g.SetVertexWeight(int(s[0]), s[1]); err != nil {
			t.Fatal(err)
		}
	}
	// An equal-weight set must not journal.
	before := len(g.VertexJournal())
	if err := g.SetVertexWeight(3, 3); err != nil {
		t.Fatal(err)
	}
	if len(g.VertexJournal()) != before {
		t.Fatal("no-op SetVertexWeight was journaled")
	}
	g.FoldJournal(side, &h)
	if h.A != g.HashWithin(side) || h.B != g.HashWithin([]bool{false, false, true, true}) || h != g.SideHashes(side) {
		t.Fatal("vertex-weight journal fold diverged from recomputed hashes")
	}
	if len(g.VertexJournal()) != 0 {
		t.Fatal("ClearJournal kept vertex entries")
	}
	if err := g.Reset(); err != nil {
		t.Fatal(err)
	}
	wantW := []int64{1, 1, 9, 1}
	for v, w := range wantW {
		if g.VertexWeight(v) != w {
			t.Fatalf("vertex %d weight %d after reset, want %d", v, g.VertexWeight(v), w)
		}
	}
	// The reverting mutations were journaled for observers.
	if len(g.VertexJournal()) == 0 {
		t.Fatal("Reset did not journal reverting vertex deltas")
	}
}
