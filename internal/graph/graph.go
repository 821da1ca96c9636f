// Package graph provides the graph substrate used throughout the library:
// undirected and directed graphs with integer edge and vertex weights,
// generators, traversals and structural queries.
//
// Vertices are dense integers in [0, N). Weights are int64; an unweighted
// graph is simply a graph whose edge weights are all 1. The zero values of
// Graph and Digraph are empty graphs with no vertices.
//
// Delta workloads (ToggleEdge, ToggleArc) run on one mutation log that
// both kinds embed: its journals, undo log (MarkBase/Reset), patchable
// snapshot (FreezePatchable) and hash fold (SideHashes/FoldJournal) treat
// a Digraph's arcs as oriented edges and a Graph's edges as canonical
// u < v pairs.
//
// All constructions in this module are deterministic; randomized generators
// take an explicit *rand.Rand so callers control seeding.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Half is one endpoint of an edge as seen from the other endpoint: the
// neighbor vertex and the weight of the connecting edge.
type Half struct {
	To     int
	Weight int64
}

// Edge is an undirected edge with its weight. For undirected graphs the
// canonical form has U < V.
type Edge struct {
	U, V   int
	Weight int64
}

// Graph is an undirected multigraph-free graph with edge and vertex weights.
// Self loops and parallel edges are rejected by AddEdge.
type Graph struct {
	mutlog

	// csr caches the Freeze() snapshot; mutators reset it. atomic so that
	// concurrent readers (e.g. parallel family verification workers that
	// share a graph) may Freeze safely.
	csr atomic.Pointer[CSR]
}

// New returns an undirected graph with n isolated vertices, all of vertex
// weight 1 and no edges.
func New(n int) *Graph {
	g := &Graph{mutlog: mutlog{
		adj: make([][]Half, n),
		vw:  make([]int64, n),
	}}
	for i := range g.vw {
		g.vw[i] = 1
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Clear makes g the graph New(n) returns, reusing g's storage: n
// isolated vertices of weight 1 and no edges. Journaling and the
// MarkBase undo log stop, and cached snapshots are dropped. A program
// that rebuilds a graph per run clears one instead of allocating.
func (g *Graph) Clear(n int) {
	g.clear(n)
	g.csr.Store(nil)
}

// AddVertex appends a new isolated vertex of weight 1 and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.vw = append(g.vw, 1)
	g.csr.Store(nil)
	g.patched = nil
	return len(g.adj) - 1
}

// AddEdge adds the unweighted (weight-1) edge {u, v}.
func (g *Graph) AddEdge(u, v int) error { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge adds the edge {u, v} with weight w. It rejects self loops,
// out-of-range endpoints and duplicate edges.
func (g *Graph) AddWeightedEdge(u, v int, w int64) error {
	if err := g.checkVertex(u); err != nil {
		return err
	}
	if err := g.checkVertex(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("self loop at vertex %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Half{To: u, Weight: w})
	g.csr.Store(nil)
	g.patched = nil
	g.record(u, v, w, true, true)
	return nil
}

// MustAddEdge is AddEdge for construction code where the arguments are known
// valid by construction; it panics on error. It is intended for package-level
// graph builders whose inputs are validated up front.
func (g *Graph) MustAddEdge(u, v int) {
	g.MustAddWeightedEdge(u, v, 1)
}

// MustAddWeightedEdge is AddWeightedEdge that panics on error.
func (g *Graph) MustAddWeightedEdge(u, v int, w int64) {
	if err := g.AddWeightedEdge(u, v, w); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the edge {u, v} exists. On a frozen graph this is
// a binary search, O(log deg); otherwise a linear scan of the shorter list.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	if g.patched != nil {
		return g.patched.Rank(u, v) >= 0
	}
	if c := g.csr.Load(); c != nil {
		return c.Rank(u, v) >= 0
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u, v}, and whether it exists. On a
// frozen graph this is a binary search, O(log deg).
func (g *Graph) EdgeWeight(u, v int) (int64, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	if g.patched != nil {
		return g.patched.EdgeWeight(u, v)
	}
	if c := g.csr.Load(); c != nil {
		return c.EdgeWeight(u, v)
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.Weight, true
		}
	}
	return 0, false
}

// SetEdgeWeight updates the weight of an existing edge {u, v}. A patchable
// Freeze snapshot (FreezePatchable) is updated in place, O(log deg); a
// plain snapshot is discarded.
func (g *Graph) SetEdgeWeight(u, v int, w int64) error {
	if err := g.checkVertex(u); err != nil {
		return err
	}
	if err := g.checkVertex(v); err != nil {
		return err
	}
	i := halfIndex(g.adj[u], v)
	if i < 0 {
		return fmt.Errorf("edge {%d,%d} not found", u, v)
	}
	oldW := g.adj[u][i].Weight
	g.adj[u][i].Weight = w
	g.adj[v][halfIndex(g.adj[v], u)].Weight = w
	g.csr.Store(nil)
	if g.patched != nil {
		g.patched.setWeight(u, v, w)
		g.patched.setWeight(v, u, w)
		g.patched.edgesStale = true
	}
	if oldW != w {
		g.record(u, v, oldW, false, true)
		g.record(u, v, w, true, true)
	}
	return nil
}

// ToggleEdge adds the edge {u, v} with weight w if it is absent and removes
// it (ignoring w) if it is present, reporting whether the edge is present
// after the call. This is the verifier's delta primitive: unlike
// AddEdge/SetEdgeWeight it keeps a patchable Freeze snapshot (see
// FreezePatchable) valid by splicing the affected CSR windows in place,
// O(deg) per endpoint, instead of discarding the snapshot.
//
//hardness:hotpath
func (g *Graph) ToggleEdge(u, v int, w int64) (added bool, err error) {
	return g.toggle(u, v, w, true)
}

func (g *Graph) toggle(u, v int, w int64, logUndo bool) (bool, error) {
	i, err := g.find(u, v)
	if err != nil {
		return false, err
	}
	if i >= 0 {
		oldW := g.adj[u][i].Weight
		g.adj[u] = removeHalfAt(g.adj[u], i)
		g.adj[v] = removeHalfAt(g.adj[v], halfIndex(g.adj[v], u))
		g.csr.Store(nil)
		if g.patched != nil {
			g.patched.spliceRemove(u, v)
			g.patched.spliceRemove(v, u)
			g.patched.edgesStale = true
		}
		g.record(u, v, oldW, false, logUndo)
		return false, nil
	}
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Half{To: u, Weight: w})
	g.csr.Store(nil)
	if g.patched != nil {
		if !g.patched.spliceInsert(u, v, w) || !g.patched.spliceInsert(v, u, w) {
			g.regrow()
		} else {
			g.patched.edgesStale = true
		}
	}
	g.record(u, v, w, true, logUndo)
	return true, nil
}

// Reset restores the graph to the MarkBase state by undoing the logged
// mutations most recent first — O(delta) work, not O(|V|+|E|) — keeping any
// patchable snapshot valid and emitting the reverting mutations to the
// journal so incremental observers stay consistent. It is a no-op without a
// preceding MarkBase.
func (g *Graph) Reset() error { return g.reset(g.toggle) }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	return maxDeg
}

// Neighbors returns the adjacency list of v. The returned slice is the
// graph's internal storage and must not be modified; it is exposed without
// copying because it sits on the hot path of every solver.
func (g *Graph) Neighbors(v int) []Half { return g.adj[v] }

// NeighborIDs returns a freshly allocated slice of the neighbor vertex ids
// of v, in adjacency order.
func (g *Graph) NeighborIDs(v int) []int {
	ids := make([]int, len(g.adj[v]))
	for i, h := range g.adj[v] {
		ids[i] = h.To
	}
	return ids
}

// VertexWeight returns the weight of vertex v.
func (g *Graph) VertexWeight(v int) int64 { return g.vw[v] }

// SetVertexWeight sets the weight of vertex v. The change is journaled
// (see StartJournal), so delta-family constructions whose inputs drive
// vertex weights can be verified incrementally.
func (g *Graph) SetVertexWeight(v int, w int64) error {
	if err := g.checkVertex(v); err != nil {
		return err
	}
	g.setVW(v, w, true)
	return nil
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 {
	var total int64
	for _, w := range g.vw {
		total += w
	}
	return total
}

// TotalEdgeWeight returns the sum of all edge weights.
func (g *Graph) TotalEdgeWeight() int64 {
	var total int64
	for u, nbrs := range g.adj {
		for _, h := range nbrs {
			if u < h.To {
				total += h.Weight
			}
		}
	}
	return total
}

// Edges returns all edges in canonical (U < V) form, sorted by (U, V). On a
// frozen graph the list is copied from the CSR snapshot without sorting.
func (g *Graph) Edges() []Edge {
	if g.patched != nil {
		return append([]Edge(nil), g.patched.Edges()...)
	}
	if c := g.csr.Load(); c != nil {
		return append([]Edge(nil), c.Edges()...)
	}
	edges := make([]Edge, 0, g.M())
	for u, nbrs := range g.adj {
		for _, h := range nbrs {
			if u < h.To {
				edges = append(edges, Edge{U: u, V: h.To, Weight: h.Weight})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{mutlog: mutlog{
		adj: make([][]Half, len(g.adj)),
		vw:  make([]int64, len(g.vw)),
	}}
	copy(c.vw, g.vw)
	for v, nbrs := range g.adj {
		c.adj[v] = make([]Half, len(nbrs))
		copy(c.adj[v], nbrs)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep (a vertex predicate),
// along with the mapping from new vertex ids to original ids.
func (g *Graph) InducedSubgraph(keep func(v int) bool) (*Graph, []int) {
	origID := make([]int, 0, len(g.adj))
	newID := make([]int, len(g.adj))
	for v := range g.adj {
		newID[v] = -1
		if keep(v) {
			newID[v] = len(origID)
			origID = append(origID, v)
		}
	}
	sub := New(len(origID))
	for i, v := range origID {
		sub.vw[i] = g.vw[v]
		for _, h := range g.adj[v] {
			if v < h.To && newID[h.To] >= 0 {
				sub.MustAddWeightedEdge(i, newID[h.To], h.Weight)
			}
		}
	}
	return sub, origID
}

// String returns a compact human-readable description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}
