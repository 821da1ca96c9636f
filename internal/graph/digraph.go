package graph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Arc is a directed edge with its weight.
type Arc struct {
	From, To int
	Weight   int64
}

// Digraph is a directed graph with arc and vertex weights. Self loops and
// parallel arcs (same direction) are rejected; antiparallel arcs are allowed.
type Digraph struct {
	// mutlog.adj holds the out-adjacency; in mirrors it by head.
	mutlog
	in [][]Half
}

// NewDigraph returns a directed graph with n isolated vertices.
func NewDigraph(n int) *Digraph {
	d := &Digraph{
		mutlog: mutlog{adj: make([][]Half, n), vw: make([]int64, n), directed: true},
		in:     make([][]Half, n),
	}
	for i := range d.vw {
		d.vw[i] = 1
	}
	return d
}

// Clear makes d the digraph NewDigraph(n) returns, reusing d's storage
// (see Graph.Clear).
func (d *Digraph) Clear(n int) {
	d.clear(n)
	d.in = emptyLists(d.in, n)
}

// N returns the number of vertices.
func (d *Digraph) N() int { return len(d.adj) }

// M returns the number of arcs.
func (d *Digraph) M() int {
	total := 0
	for _, nbrs := range d.adj {
		total += len(nbrs)
	}
	return total
}

// AddArc adds the weight-1 arc (u, v).
func (d *Digraph) AddArc(u, v int) error { return d.AddWeightedArc(u, v, 1) }

// AddWeightedArc adds the arc (u, v) with weight w.
func (d *Digraph) AddWeightedArc(u, v int, w int64) error {
	if err := d.checkVertex(u); err != nil {
		return err
	}
	if err := d.checkVertex(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("self loop at vertex %d", u)
	}
	if d.HasArc(u, v) {
		return fmt.Errorf("duplicate arc (%d,%d)", u, v)
	}
	d.adj[u] = append(d.adj[u], Half{To: v, Weight: w})
	d.in[v] = append(d.in[v], Half{To: u, Weight: w})
	d.patched = nil
	d.record(u, v, w, true, true)
	return nil
}

// ToggleArc adds the arc (u, v) with weight w if it is absent and removes
// it (ignoring w) if it is present, reporting whether the arc is present
// after the call. This is the directed verifier's delta primitive: unlike
// AddArc it keeps a patchable Freeze snapshot (see FreezePatchable) valid
// by splicing the affected out-window in place, O(outdeg), instead of
// discarding the snapshot.
//
//hardness:hotpath
func (d *Digraph) ToggleArc(u, v int, w int64) (added bool, err error) {
	return d.toggle(u, v, w, true)
}

func (d *Digraph) toggle(u, v int, w int64, logUndo bool) (bool, error) {
	i, err := d.find(u, v)
	if err != nil {
		return false, err
	}
	if i >= 0 {
		oldW := d.adj[u][i].Weight
		d.adj[u] = removeHalfAt(d.adj[u], i)
		d.in[v] = removeHalfAt(d.in[v], halfIndex(d.in[v], u))
		if d.patched != nil {
			d.patched.spliceRemove(u, v)
			d.patched.edgesStale = true
		}
		d.record(u, v, oldW, false, logUndo)
		return false, nil
	}
	d.adj[u] = append(d.adj[u], Half{To: v, Weight: w})
	d.in[v] = append(d.in[v], Half{To: u, Weight: w})
	if d.patched != nil {
		if !d.patched.spliceInsert(u, v, w) {
			d.regrow()
		} else {
			d.patched.edgesStale = true
		}
	}
	d.record(u, v, w, true, logUndo)
	return true, nil
}

// Reset is the directed analogue of Graph.Reset.
func (d *Digraph) Reset() error { return d.reset(d.toggle) }

// MustAddArc is AddArc that panics on error; for validated builders only.
func (d *Digraph) MustAddArc(u, v int) { d.MustAddWeightedArc(u, v, 1) }

// MustAddWeightedArc is AddWeightedArc that panics on error.
func (d *Digraph) MustAddWeightedArc(u, v int, w int64) {
	if err := d.AddWeightedArc(u, v, w); err != nil {
		panic(err)
	}
}

// HasArc reports whether the arc (u, v) exists. On a patchable snapshot
// (FreezePatchable) this is a binary search, O(log outdeg).
func (d *Digraph) HasArc(u, v int) bool {
	if u < 0 || u >= len(d.adj) || v < 0 || v >= len(d.adj) {
		return false
	}
	if d.patched != nil {
		return d.patched.Rank(u, v) >= 0
	}
	for _, h := range d.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// ArcWeight returns the weight of arc (u, v) and whether it exists.
func (d *Digraph) ArcWeight(u, v int) (int64, bool) {
	if u < 0 || u >= len(d.adj) {
		return 0, false
	}
	if d.patched != nil {
		return d.patched.EdgeWeight(u, v)
	}
	for _, h := range d.adj[u] {
		if h.To == v {
			return h.Weight, true
		}
	}
	return 0, false
}

// OutNeighbors returns the out-adjacency of v (internal storage; read-only).
func (d *Digraph) OutNeighbors(v int) []Half { return d.adj[v] }

// InNeighbors returns the in-adjacency of v (internal storage; read-only).
func (d *Digraph) InNeighbors(v int) []Half { return d.in[v] }

// OutDegree returns the number of arcs leaving v.
func (d *Digraph) OutDegree(v int) int { return len(d.adj[v]) }

// InDegree returns the number of arcs entering v.
func (d *Digraph) InDegree(v int) int { return len(d.in[v]) }

// VertexWeight returns the weight of vertex v.
func (d *Digraph) VertexWeight(v int) int64 { return d.vw[v] }

// SetVertexWeight sets the weight of vertex v, journaled and undone like
// Graph.SetVertexWeight.
func (d *Digraph) SetVertexWeight(v int, w int64) error {
	if err := d.checkVertex(v); err != nil {
		return err
	}
	d.setVW(v, w, true)
	return nil
}

// Arcs returns all arcs sorted by (From, To).
func (d *Digraph) Arcs() []Arc {
	arcs := make([]Arc, 0, d.M())
	for u, nbrs := range d.adj {
		for _, h := range nbrs {
			arcs = append(arcs, Arc{From: u, To: h.To, Weight: h.Weight})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return arcs
}

// Clone returns a deep copy of d.
func (d *Digraph) Clone() *Digraph {
	c := &Digraph{
		mutlog: mutlog{adj: make([][]Half, len(d.adj)), vw: make([]int64, len(d.vw)), directed: true},
		in:     make([][]Half, len(d.in)),
	}
	copy(c.vw, d.vw)
	for v := range d.adj {
		c.adj[v] = append([]Half(nil), d.adj[v]...)
		c.in[v] = append([]Half(nil), d.in[v]...)
	}
	return c
}

// InducedSubdigraph returns the sub-digraph induced by keep (a vertex
// predicate), along with the mapping from new vertex ids to original ids.
// Vertices keep their relative order, so inducing on the full vertex set
// is the identity relabeling.
func (d *Digraph) InducedSubdigraph(keep func(v int) bool) (*Digraph, []int) {
	origID := make([]int, 0, len(d.adj))
	newID := make([]int, len(d.adj))
	for v := range d.adj {
		newID[v] = -1
		if keep(v) {
			newID[v] = len(origID)
			origID = append(origID, v)
		}
	}
	sub := NewDigraph(len(origID))
	for i, v := range origID {
		sub.vw[i] = d.vw[v]
		for _, h := range d.adj[v] {
			if newID[h.To] >= 0 {
				sub.MustAddWeightedArc(i, newID[h.To], h.Weight)
			}
		}
	}
	return sub, origID
}

// Underlying returns the undirected graph obtained by forgetting arc
// directions (antiparallel arcs collapse to a single edge keeping the first
// weight seen).
func (d *Digraph) Underlying() *Graph {
	g := New(d.N())
	for v := range d.vw {
		g.vw[v] = d.vw[v]
	}
	for u, nbrs := range d.adj {
		for _, h := range nbrs {
			if !g.HasEdge(u, h.To) {
				g.MustAddWeightedEdge(u, h.To, h.Weight)
			}
		}
	}
	return g
}

// SplitDirected implements the classic reduction from directed to undirected
// Hamiltonicity used in Lemma 2.2 of the paper: every vertex v becomes a
// path v_in - v_mid - v_out, and every arc (u, v) becomes the undirected
// edge {u_out, v_in}. Vertex v maps to 3v (in), 3v+1 (mid), 3v+2 (out).
func (d *Digraph) SplitDirected() *Graph {
	g := New(3 * d.N())
	for v := 0; v < d.N(); v++ {
		g.MustAddEdge(3*v, 3*v+1)
		g.MustAddEdge(3*v+1, 3*v+2)
	}
	for u, nbrs := range d.adj {
		for _, h := range nbrs {
			g.MustAddEdge(3*u+2, 3*h.To)
		}
	}
	return g
}

// String returns a compact human-readable description of the digraph.
func (d *Digraph) String() string {
	return fmt.Sprintf("digraph{n=%d m=%d}", d.N(), d.M())
}

// SignatureWithin returns a canonical encoding of the arcs with both
// endpoints inside the vertex set marked by within, plus those vertices'
// weights. Used by the lower-bound-family verifier.
func (d *Digraph) SignatureWithin(within []bool) string {
	var b strings.Builder
	b.WriteString("vw=")
	for v, w := range d.vw {
		if within[v] {
			b.WriteString(strconv.Itoa(v))
			b.WriteByte('=')
			b.WriteString(strconv.FormatInt(w, 10))
			b.WriteByte(',')
		}
	}
	b.WriteString(";a=")
	for _, a := range d.Arcs() {
		if within[a.From] && within[a.To] {
			b.WriteString(strconv.Itoa(a.From))
			b.WriteByte('>')
			b.WriteString(strconv.Itoa(a.To))
			b.WriteByte(':')
			b.WriteString(strconv.FormatInt(a.Weight, 10))
			b.WriteByte(',')
		}
	}
	return b.String()
}

// CutArcs returns the arcs crossing the side partition (either direction),
// sorted.
func (d *Digraph) CutArcs(side []bool) []Arc {
	var cut []Arc
	for _, a := range d.Arcs() {
		if side[a.From] != side[a.To] {
			cut = append(cut, a)
		}
	}
	return cut
}
