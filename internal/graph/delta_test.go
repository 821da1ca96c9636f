package graph

import (
	"math/rand"
	"slices"
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

	// A digraph's vertex weights ride the same log: journaled, folded and
	// undone like a graph's.
	d := NewDigraph(4)
	d.MustAddArc(1, 0)
	dh := d.SideHashes(side)
	d.StartJournal()
	d.MarkBase()
	if err := d.SetVertexWeight(0, 5); err != nil {
		t.Fatal(err)
	}
	d.FoldJournal(side, &dh)
	if dh != d.SideHashes(side) {
		t.Fatal("digraph vertex-weight journal fold diverged from recomputed hashes")
	}
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	if d.VertexWeight(0) != 1 {
		t.Fatalf("digraph vertex 0 weight %d after reset, want 1", d.VertexWeight(0))
	}
}

// toggleKind adapts one graph kind to FuzzToggleMatchesRebuild's ops.
type toggleKind struct {
	log      *mutlog
	toggle   func(u, v int, w int64) (bool, error)
	reweight func(u, v int, w int64) error
	setVW    func(v int, w int64) error
	reset    func() error
	hashes   func(side, other []bool) SideHashes
}

func fuzzKinds(n int) []toggleKind {
	g, d := New(n), NewDigraph(n)
	return []toggleKind{
		{
			log:      &g.mutlog,
			toggle:   g.ToggleEdge,
			reweight: g.SetEdgeWeight,
			setVW:    g.SetVertexWeight,
			reset:    g.Reset,
			hashes: func(side, other []bool) SideHashes {
				return SideHashes{Cut: g.CutHash(side), A: g.HashWithin(side), B: g.HashWithin(other)}
			},
		},
		{
			log:    &d.mutlog,
			toggle: d.ToggleArc,
			// A Digraph has no SetEdgeWeight: re-weight the arc by
			// toggling it off and back on.
			reweight: func(u, v int, w int64) error {
				if _, err := d.ToggleArc(u, v, 0); err != nil {
					return err
				}
				_, err := d.ToggleArc(u, v, w)
				return err
			},
			setVW: d.SetVertexWeight,
			reset: d.Reset,
			hashes: func(side, other []bool) SideHashes {
				return SideHashes{Cut: d.CutHash(side), A: d.HashWithin(side), B: d.HashWithin(other)}
			},
		},
	}
}

// FuzzToggleMatchesRebuild drives both graph kinds through a byte-coded
// sequence of toggles, edge and vertex re-weights and MarkBase/Reset on
// at most 8 vertices. After every step the patchable snapshot must match
// a freshly built one of the same adjacency, the running FoldJournal value
// must equal SideHashes (and the HashWithin/CutHash references), and a
// Reset must bring SideHashes back to its MarkBase value. Each op is three
// bytes: op code, endpoints (u = low 3 bits, v = next 3 bits), weight.
func FuzzToggleMatchesRebuild(f *testing.F) {
	// Slack overflow: vertex 0 toggled past the 4 spare slots of its window.
	f.Add(byte(6), []byte{6, 0, 0, 0, 8, 1, 0, 16, 2, 0, 24, 3, 0, 32, 4, 0, 40, 5, 7, 0, 0})
	// Antiparallel arc pair, re-weighted and reset.
	f.Add(byte(3), []byte{6, 0, 0, 0, 17, 2, 0, 10, 3, 4, 17, 5, 5, 2, 6, 7, 0, 0})
	f.Fuzz(func(t *testing.T, nByte byte, ops []byte) {
		n := 2 + int(nByte)%7
		side, other := make([]bool, n), make([]bool, n)
		for v := range side {
			side[v] = v < n/2
			other[v] = !side[v]
		}
		for _, k := range fuzzKinds(n) {
			m := k.log
			m.FreezePatchable()
			m.StartJournal()
			h := m.SideHashes(side)
			var base *SideHashes
			for step := 0; step+3 <= len(ops); step += 3 {
				op, u, v := ops[step]%8, int(ops[step+1]&7)%n, int(ops[step+1]>>3&7)%n
				w := int64(ops[step+2] % 8)
				switch {
				case op < 4:
					if _, err := k.toggle(u, v, w); (err != nil) != (u == v) {
						t.Fatalf("directed=%v step %d: toggle(%d,%d) err = %v", m.directed, step, u, v, err)
					}
				case op == 4:
					if halfIndex(m.adj[u], v) >= 0 {
						if err := k.reweight(u, v, w); err != nil {
							t.Fatal(err)
						}
					}
				case op == 5:
					if err := k.setVW(u, w); err != nil {
						t.Fatal(err)
					}
				case op == 6:
					m.MarkBase()
					b := m.SideHashes(side)
					base = &b
				default:
					if err := k.reset(); err != nil {
						t.Fatalf("directed=%v step %d: %v", m.directed, step, err)
					}
					if base != nil && m.SideHashes(side) != *base {
						t.Fatalf("directed=%v step %d: Reset did not restore the base hashes", m.directed, step)
					}
				}
				m.FoldJournal(side, &h)
				if h != m.SideHashes(side) || h != k.hashes(side, other) {
					t.Fatalf("directed=%v step %d: folded hashes diverged from recomputed ones", m.directed, step)
				}
				checkPatchable(t, m, step)
			}
		}
	})
}

// checkPatchable compares m's patchable snapshot against a dense one
// built from scratch out of the same adjacency.
func checkPatchable(t *testing.T, m *mutlog, step int) {
	t.Helper()
	if m.patched == nil {
		t.Fatalf("directed=%v step %d: patchable snapshot dropped", m.directed, step)
	}
	fresh := fillCSR(&CSR{directed: m.directed}, m.adj, 0)
	fresh.rebuildEdges()
	for v := 0; v < fresh.N(); v++ {
		nbr, wt := m.patched.Window(v)
		fnbr, fwt := fresh.Window(v)
		if !slices.Equal(nbr, fnbr) || !slices.Equal(wt, fwt) {
			t.Fatalf("directed=%v step %d: window(%d) = %v/%v, want %v/%v", m.directed, step, v, nbr, wt, fnbr, fwt)
		}
	}
	if pe, fe := m.patched.Edges(), fresh.Edges(); !slices.Equal(pe, fe) {
		t.Fatalf("directed=%v step %d: Edges() = %v, want %v", m.directed, step, pe, fe)
	}
}
