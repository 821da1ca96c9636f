package graph

import (
	"fmt"
	"sort"
)

// CSR is an immutable compressed-sparse-row snapshot of a graph's
// adjacency: per-vertex neighbor windows sorted by neighbor id, plus the
// canonical sorted edge list. It is built once by Freeze and shared by
// every hot path that would otherwise rescan adjacency lists — the CONGEST
// simulator's routing tables, the solvers' membership tests and the
// lower-bound-family verifier's structural hashes.
//
// A CSR is valid only for the graph state it was built from; any mutation
// of the graph invalidates the cached snapshot (Freeze builds a fresh one
// on the next call). The snapshot itself is never mutated, so it is safe
// for concurrent readers.
type CSR struct {
	offsets []int32 // len n+1; vertex v's window starts at offsets[v]
	ends    []int32 // window ends; nil for dense snapshots (end = offsets[v+1])
	nbr     []int32 // neighbor ids, sorted within each window
	wt      []int64 // edge weights, parallel to nbr
	edges   []Edge  // canonical (U < V) edge list, sorted by (U, V)

	// edgesStale marks a patchable snapshot whose canonical edge list has
	// not been rebuilt since the last window splice; Edges rebuilds lazily.
	edgesStale bool

	// directed marks a Digraph snapshot: windows hold out-neighbors, and
	// Edges() renders every arc as Edge{U: from, V: to} instead of the
	// canonical U < V undirected form.
	directed bool
}

// end returns the exclusive end of v's window. Dense snapshots (Freeze)
// pack windows back to back; patchable snapshots (FreezePatchable) leave
// slack between ends[v] and offsets[v+1] so ToggleEdge can splice in place.
func (c *CSR) end(v int) int32 {
	if c.ends != nil {
		return c.ends[v]
	}
	return c.offsets[v+1]
}

// Freeze returns the CSR snapshot of g, building and caching it on first
// use. Mutating the graph invalidates the cache. Concurrent Freeze calls
// are safe; concurrent mutation is not (as with any Graph method).
func (g *Graph) Freeze() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := buildCSR(g)
	g.csr.Store(c)
	return c
}

func buildCSR(g *Graph) *CSR {
	c := fillCSR(&CSR{}, g.adj, 0)
	c.rebuildEdges()
	return c
}

func fillCSR(c *CSR, adj [][]Half, slack int) *CSR {
	n := len(adj)
	c.offsets = make([]int32, n+1)
	total := 0
	for v, nbrs := range adj {
		total += len(nbrs) + slack
		c.offsets[v+1] = int32(total)
	}
	if slack > 0 {
		c.ends = make([]int32, n)
		for v, nbrs := range adj {
			c.ends[v] = c.offsets[v] + int32(len(nbrs))
		}
	}
	c.nbr = make([]int32, total)
	c.wt = make([]int64, total)
	// One window, re-aimed at each vertex: sort.Sort boxes it once per
	// snapshot rather than once per vertex.
	window := new(csrWindow)
	for v, nbrs := range adj {
		base := int(c.offsets[v])
		for i, h := range nbrs {
			c.nbr[base+i] = int32(h.To)
			c.wt[base+i] = h.Weight
		}
		window.nbr, window.wt = c.nbr[base:base+len(nbrs)], c.wt[base:base+len(nbrs)]
		sort.Sort(window)
	}
	return c
}

// rebuildEdges regenerates the canonical sorted edge list from the sorted
// windows (no extra sort needed). Directed snapshots render every window
// entry (the arc list sorted by (From, To)); undirected ones keep the
// canonical U < V form.
func (c *CSR) rebuildEdges() {
	c.edges = c.edges[:0]
	if c.edges == nil {
		c.edges = make([]Edge, 0, len(c.nbr)/2)
	}
	for v := 0; v < c.N(); v++ {
		for i := c.offsets[v]; i < c.end(v); i++ {
			if to := int(c.nbr[i]); c.directed || v < to {
				c.edges = append(c.edges, Edge{U: v, V: to, Weight: c.wt[i]})
			}
		}
	}
	c.edgesStale = false
}

// spliceInsert inserts v into u's sorted window in place, O(deg). It
// reports false when the window has no slack left (caller rebuilds).
func (c *CSR) spliceInsert(u, v int, w int64) bool {
	lo, hi := c.offsets[u], c.ends[u]
	if hi == c.offsets[u+1] {
		return false
	}
	target := int32(v)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.nbr[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := c.ends[u]
	copy(c.nbr[lo+1:end+1], c.nbr[lo:end])
	copy(c.wt[lo+1:end+1], c.wt[lo:end])
	c.nbr[lo] = target
	c.wt[lo] = w
	c.ends[u] = end + 1
	return true
}

// spliceRemove removes v from u's sorted window in place, O(deg).
func (c *CSR) spliceRemove(u, v int) {
	r := c.Rank(u, v)
	if r < 0 {
		// Unreachable unless the snapshot's journal and window diverge;
		// delta sweeps run under the recover-into-*PanicError machinery.
		panic(fmt.Sprintf("graph: patchable snapshot missing edge {%d,%d}", u, v)) //nolint:hardlint/panicsite broken-snapshot invariant; confined by sweep recovery
	}
	pos := c.offsets[u] + int32(r)
	end := c.ends[u]
	copy(c.nbr[pos:end-1], c.nbr[pos+1:end])
	copy(c.wt[pos:end-1], c.wt[pos+1:end])
	c.ends[u] = end - 1
}

// setWeight updates the stored weight of the directed slot u -> v.
func (c *CSR) setWeight(u, v int, w int64) {
	r := c.Rank(u, v)
	if r < 0 {
		// Unreachable unless the snapshot's journal and window diverge;
		// delta sweeps run under the recover-into-*PanicError machinery.
		panic(fmt.Sprintf("graph: patchable snapshot missing edge {%d,%d}", u, v)) //nolint:hardlint/panicsite broken-snapshot invariant; confined by sweep recovery
	}
	c.wt[c.offsets[u]+int32(r)] = w
}

type csrWindow struct {
	nbr []int32
	wt  []int64
}

func (w csrWindow) Len() int           { return len(w.nbr) }
func (w csrWindow) Less(i, j int) bool { return w.nbr[i] < w.nbr[j] }
func (w csrWindow) Swap(i, j int) {
	w.nbr[i], w.nbr[j] = w.nbr[j], w.nbr[i]
	w.wt[i], w.wt[j] = w.wt[j], w.wt[i]
}

// N returns the number of vertices in the snapshot.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return int(c.end(v) - c.offsets[v]) }

// Window returns v's neighbor ids and edge weights, sorted by neighbor id.
// Both slices are the snapshot's internal storage and must not be modified.
func (c *CSR) Window(v int) ([]int32, []int64) {
	return c.nbr[c.offsets[v]:c.end(v)], c.wt[c.offsets[v]:c.end(v)]
}

// Rank returns the position of v within u's sorted neighbor window, or -1
// if the edge {u, v} does not exist. offsets[u] + Rank(u, v) is the global
// slot of the directed edge u -> v.
func (c *CSR) Rank(u, v int) int {
	lo, hi := c.offsets[u], c.end(u)
	target := int32(v)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.nbr[mid] < target:
			lo = mid + 1
		case c.nbr[mid] > target:
			hi = mid
		default:
			return int(mid - c.offsets[u])
		}
	}
	return -1
}

// Slot returns the global directed-edge slot of u -> v (an index into the
// flat window storage), or -1 if the edge does not exist.
func (c *CSR) Slot(u, v int) int {
	r := c.Rank(u, v)
	if r < 0 {
		return -1
	}
	return int(c.offsets[u]) + r
}

// Offset returns the start of v's window in the flat slot storage.
func (c *CSR) Offset(v int) int { return int(c.offsets[v]) }

// Slots returns the total number of directed-edge slots (2m).
func (c *CSR) Slots() int { return len(c.nbr) }

// Flat returns the packed window storage of a dense snapshot (Freeze):
// offsets of length n+1 and the neighbor ids, v's window being
// nbr[offsets[v]:offsets[v+1]]. A patchable snapshot, whose windows carry
// slack, returns nil slices. Both slices are the snapshot's internal
// storage and must not be modified.
func (c *CSR) Flat() (offsets, nbr []int32) {
	if c.ends != nil {
		return nil, nil
	}
	return c.offsets, c.nbr
}

// HasEdge reports whether {u, v} exists, by binary search: O(log deg(u)).
func (c *CSR) HasEdge(u, v int) bool {
	if u < 0 || u >= c.N() || v < 0 || v >= c.N() {
		return false
	}
	return c.Rank(u, v) >= 0
}

// EdgeWeight returns the weight of {u, v} and whether it exists.
func (c *CSR) EdgeWeight(u, v int) (int64, bool) {
	if u < 0 || u >= c.N() || v < 0 || v >= c.N() {
		return 0, false
	}
	r := c.Rank(u, v)
	if r < 0 {
		return 0, false
	}
	return c.wt[c.offsets[u]+int32(r)], true
}

// Edges returns the canonical sorted edge list, rebuilding it first on a
// patchable snapshot whose windows were spliced since the last call. The
// slice is the snapshot's internal storage and must not be modified.
func (c *CSR) Edges() []Edge {
	if c.edgesStale {
		c.rebuildEdges()
	}
	return c.edges
}

// The structural hashes below are XOR-folds of per-element 64-bit hashes:
// each labeled weighted edge (or vertex, or arc) is mixed through a
// splitmix64 finalizer and the element hashes are XORed together. XOR makes
// the fold order-free and — crucially for the delta-driven verifier —
// invertible: adding or removing an element updates the fold with a single
// XOR, so the hash of G ± one edge costs O(1) given the hash of G.
// Two graphs agree iff their element multisets agree (up to hash
// collision, ~2^-64; elements within one graph are distinct by
// construction, so the multiset is a set).
const (
	edgeSeed   = 0x9e3779b97f4a7c15
	vertexSeed = 0xd1b54a32d192ed03
	arcSeed    = 0x8bb84b93962eacc9
)

// mix64 is the splitmix64 finalizer: a cheap 64-bit permutation with full
// avalanche, so XOR-folding element hashes does not cancel structure.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EdgeHash returns the element hash of the labeled weighted undirected edge
// {u, v} — the unit the XOR-fold structural hashes are built from, so a
// journaled edge delta updates them in O(1) (see FoldJournal).
func EdgeHash(u, v int, w int64) uint64 {
	if u > v {
		u, v = v, u
	}
	return mix64(mix64(mix64(uint64(u)^edgeSeed)+uint64(v)) + uint64(w))
}

// VertexHash returns the element hash of a labeled weighted vertex, so
// vertex-weight deltas (families whose inputs drive vertex weights rather
// than edges) fold into HashWithin values with one XOR per change.
func VertexHash(v int, w int64) uint64 {
	return mix64(mix64(uint64(v)^vertexSeed) + uint64(w))
}

// ArcHash is the directed analogue of EdgeHash (direction is significant).
func ArcHash(from, to int, w int64) uint64 {
	return mix64(mix64(mix64(uint64(from)^arcSeed)+uint64(to)) + uint64(w))
}

// HashWithin returns a 64-bit structural hash of the subgraph induced by
// the vertex set marked by within — the hashed analogue of
// SignatureWithin: vertex ids and weights of the marked vertices plus the
// canonical edge list among them. It iterates the adjacency directly (no
// Freeze needed), and the XOR-fold form means the value can alternatively
// be maintained incrementally via EdgeHash as edges toggle.
func (g *Graph) HashWithin(within []bool) uint64 {
	h := uint64(0)
	for v, w := range g.vw {
		if within[v] {
			h ^= VertexHash(v, w)
		}
	}
	for u, nbrs := range g.adj {
		if !within[u] {
			continue
		}
		for _, half := range nbrs {
			if u < half.To && within[half.To] {
				h ^= EdgeHash(u, half.To, half.Weight)
			}
		}
	}
	return h
}

// CutHash returns a 64-bit hash of the canonical cut edge list (the edges
// with exactly one endpoint in side, with weights) — the hashed analogue
// of rendering CutEdges to a string, maintainable in O(1) per edge delta.
func (g *Graph) CutHash(side []bool) uint64 {
	h := uint64(0)
	for u, nbrs := range g.adj {
		for _, half := range nbrs {
			if u < half.To && side[u] != side[half.To] {
				h ^= EdgeHash(u, half.To, half.Weight)
			}
		}
	}
	return h
}

// HashWithin is the directed analogue of Graph.HashWithin: vertex ids and
// weights of the marked vertices plus the canonical arc list among them.
func (d *Digraph) HashWithin(within []bool) uint64 {
	h := uint64(0)
	for v, w := range d.vw {
		if within[v] {
			h ^= VertexHash(v, w)
		}
	}
	for _, a := range d.Arcs() {
		if within[a.From] && within[a.To] {
			h ^= ArcHash(a.From, a.To, a.Weight)
		}
	}
	return h
}

// CutHash returns a 64-bit hash of the canonical list of arcs crossing the
// side partition (either direction, with weights).
func (d *Digraph) CutHash(side []bool) uint64 {
	h := uint64(0)
	for _, a := range d.Arcs() {
		if side[a.From] != side[a.To] {
			h ^= ArcHash(a.From, a.To, a.Weight)
		}
	}
	return h
}

// SideHashes are the three structural hashes Definition 1.1 compares
// across inputs, for one Alice/Bob partition: the cut (CutHash(side)),
// Alice's induced side (HashWithin(side)) and Bob's (HashWithin of the
// complement).
type SideHashes struct {
	Cut, A, B uint64
}

// add folds element hash h of the edge or arc {u, v} into the part it
// belongs to.
func (s *SideHashes) add(side []bool, u, v int, h uint64) {
	switch {
	case side[u] != side[v]:
		s.Cut ^= h
	case side[u]:
		s.A ^= h
	default:
		s.B ^= h
	}
}

// addVertex folds a vertex element hash into its side (vertices never
// touch the cut).
func (s *SideHashes) addVertex(alice bool, h uint64) {
	if alice {
		s.A ^= h
	} else {
		s.B ^= h
	}
}
