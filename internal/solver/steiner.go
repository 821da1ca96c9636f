package solver

import (
	"fmt"
	"math"
	"math/bits"

	"congesthard/internal/graph"
)

// SteinerTree computes the minimum total edge weight of a tree spanning
// the given terminals, using the Dreyfus-Wagner dynamic program
// (O(3^t * n + 2^t * n^2)). Practical to about 14 terminals.
func SteinerTree(g *graph.Graph, terminals []int) (int64, error) {
	t := len(terminals)
	n := g.N()
	if t == 0 {
		return 0, nil
	}
	if t > 14 {
		return 0, fmt.Errorf("dreyfus-wagner limited to 14 terminals, got %d", t)
	}
	for _, v := range terminals {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("terminal %d out of range", v)
		}
	}
	const inf = int64(math.MaxInt64 / 4)
	// All-pairs shortest paths by n Dijkstra runs.
	dist := make([][]int64, n)
	for v := 0; v < n; v++ {
		dv := g.Dijkstra(v)
		dist[v] = make([]int64, n)
		for u := range dv {
			if dv[u] < 0 {
				dist[v][u] = inf
			} else {
				dist[v][u] = dv[u]
			}
		}
	}
	// dp[S][v] = min weight of a tree spanning terminal subset S plus
	// vertex v.
	size := 1 << uint(t)
	dp := make([][]int64, size)
	for s := range dp {
		dp[s] = make([]int64, n)
		for v := range dp[s] {
			dp[s][v] = inf
		}
	}
	for i, term := range terminals {
		for v := 0; v < n; v++ {
			dp[1<<uint(i)][v] = dist[term][v]
		}
	}
	for s := 1; s < size; s++ {
		if s&(s-1) == 0 {
			continue // singletons already seeded
		}
		// Merge step: split S into two non-empty parts at a common vertex.
		for v := 0; v < n; v++ {
			for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
				if sub < s-sub {
					break // each split considered once
				}
				if a, b := dp[sub][v], dp[s^sub][v]; a < inf && b < inf && a+b < dp[s][v] {
					dp[s][v] = a + b
				}
			}
		}
		// Grow step: Bellman-Ford style relaxation through shortest paths.
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if dp[s][u] < inf && dist[u][v] < inf {
					if cand := dp[s][u] + dist[u][v]; cand < dp[s][v] {
						dp[s][v] = cand
					}
				}
			}
		}
	}
	best := inf
	for v := 0; v < n; v++ {
		if dp[size-1][v] < best {
			best = dp[size-1][v]
		}
	}
	if best >= inf {
		return 0, fmt.Errorf("terminals not connected")
	}
	return best, nil
}

// HasSteinerTreeWithEdges reports whether g has a Steiner tree spanning all
// terminals with at most maxEdges edges. It enumerates candidate Steiner
// vertex sets: a tree with e edges has e+1 vertices, so at most
// maxEdges+1-|terminals| non-terminals participate; for each subset of that
// size the induced subgraph is checked for connectivity over the terminals.
// Exact, with work bounded by C(#non-terminals, budget); it rejects
// parameter combinations above ~10^7 subsets.
func HasSteinerTreeWithEdges(g *graph.Graph, terminals []int, maxEdges int) (bool, error) {
	return new(SteinerOracle).HasSteinerTreeWithEdges(g, terminals, maxEdges)
}

// SteinerOracle is a reusable Steiner-tree decision evaluator: it owns the
// terminal marks, candidate lists, bitmask adjacency and BFS scratch of
// HasSteinerTreeWithEdges, so a worker holding one across many same-size
// graphs does not allocate. The zero value is ready to use. Not safe for
// concurrent use.
type SteinerOracle struct {
	capN       int
	isTerminal []bool
	others     []int
	adjMask    []uint64
	allowed    []bool
	chosen     []int
	scratch    *bfsScratch
}

func (o *SteinerOracle) grow(n int) {
	if o.capN >= n {
		return
	}
	o.capN = n
	o.isTerminal = make([]bool, n)
	o.others = make([]int, 0, n)
	o.adjMask = make([]uint64, n)
	o.allowed = make([]bool, n)
	o.chosen = make([]int, 0, n)
	o.scratch = newBFSScratch(n)
}

// HasSteinerTreeWithEdges is the arena-backed equivalent of the package
// function: same enumeration order, same limits and error messages.
func (o *SteinerOracle) HasSteinerTreeWithEdges(g *graph.Graph, terminals []int, maxEdges int) (bool, error) {
	n := g.N()
	o.grow(n)
	isTerminal := o.isTerminal[:n]
	for v := range isTerminal {
		isTerminal[v] = false
	}
	for _, v := range terminals {
		if v < 0 || v >= n {
			return false, fmt.Errorf("terminal %d out of range", v)
		}
		isTerminal[v] = true
	}
	budget := maxEdges + 1 - len(terminals)
	if budget < 0 {
		return false, nil
	}
	others := o.others[:0]
	for v := 0; v < n; v++ {
		if !isTerminal[v] {
			others = append(others, v)
		}
	}
	o.others = others
	if budget > len(others) {
		budget = len(others)
	}
	if c := binomialSum(len(others), budget); c > 1e7 {
		return false, fmt.Errorf("steiner decision too large: ~%.0f subsets", c)
	}
	if len(terminals) == 0 {
		return true, nil
	}
	if n <= 64 {
		return o.hasSmall(g, terminals, budget), nil
	}
	allowed := o.allowed[:n]
	chosen := o.chosen[:0]
	var try func(startIdx, remaining int) bool
	try = func(startIdx, remaining int) bool {
		for v := 0; v < n; v++ {
			allowed[v] = isTerminal[v]
		}
		for _, v := range chosen {
			allowed[v] = true
		}
		if len(terminals) == 0 || o.scratch.terminalsConnected(g, terminals, allowed) {
			return true
		}
		if remaining == 0 {
			return false
		}
		for i := startIdx; i < len(others); i++ {
			chosen = append(chosen, others[i])
			if try(i+1, remaining-1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	return try(0, budget), nil
}

// hasSmall is the n <= 64 fast path: adjacency and reachability live in
// single machine words, so each candidate-subset connectivity probe costs
// O(reached vertices) word ops and allocates nothing. The enumeration
// order matches the general path.
func (o *SteinerOracle) hasSmall(g *graph.Graph, terminals []int, budget int) bool {
	n := g.N()
	adjMask := o.adjMask[:n]
	for v := 0; v < n; v++ {
		adjMask[v] = 0
		for _, h := range g.Neighbors(v) {
			adjMask[v] |= uint64(1) << uint(h.To)
		}
	}
	var termMask uint64
	for _, t := range terminals {
		termMask |= uint64(1) << uint(t)
	}
	return o.trySmall(terminals[0], termMask, 0, budget, termMask)
}

func (o *SteinerOracle) trySmall(start int, termMask uint64, startIdx, remaining int, allowed uint64) bool {
	reach := uint64(1) << uint(start)
	frontier := reach
	for frontier != 0 {
		v := bits.TrailingZeros64(frontier)
		frontier &= frontier - 1
		add := o.adjMask[v] & allowed &^ reach
		reach |= add
		frontier |= add
	}
	if termMask&^reach == 0 {
		return true
	}
	if remaining == 0 {
		return false
	}
	for i := startIdx; i < len(o.others); i++ {
		if o.trySmall(start, termMask, i+1, remaining-1, allowed|uint64(1)<<uint(o.others[i])) {
			return true
		}
	}
	return false
}

func binomialSum(n, k int) float64 {
	total := 0.0
	term := 1.0
	for i := 0; i <= k && i <= n; i++ {
		total += term
		term = term * float64(n-i) / float64(i+1)
	}
	return total
}

// IsSteinerTree validates a claimed Steiner tree given as an edge list: the
// edges must exist in g, form a tree (connected, acyclic over the touched
// vertices), and span all terminals. Returns the tree's total edge weight.
func IsSteinerTree(g *graph.Graph, terminals []int, edges []graph.Edge) (int64, bool) {
	if len(edges) == 0 {
		return 0, len(terminals) <= 1
	}
	touched := map[int]bool{}
	var weight int64
	uf := newUnionFind(g.N())
	for _, e := range edges {
		w, ok := g.EdgeWeight(e.U, e.V)
		if !ok {
			return 0, false
		}
		if !uf.union(e.U, e.V) {
			return 0, false // cycle
		}
		weight += w
		touched[e.U] = true
		touched[e.V] = true
	}
	if len(terminals) > 0 {
		root := uf.find(terminals[0])
		for _, term := range terminals {
			if !touched[term] && len(edges) > 0 {
				// A terminal not touched by any edge can only be fine if it
				// is the unique terminal; with edges present it must appear.
				return 0, false
			}
			if uf.find(term) != root {
				return 0, false
			}
		}
	}
	// Tree check: edges == touched vertices - 1 and connected over touched.
	if len(edges) != len(touched)-1 {
		return 0, false
	}
	return weight, true
}

// NodeWeightedSteinerEnum computes the minimum vertex-weight of a connected
// subgraph spanning all terminals, where the cost is the sum of weights of
// the subgraph's vertices. It enumerates subsets of the positive-weight
// vertices (zero-weight vertices are free), so it requires at most
// maxPositive positive-weight vertices (default limit 22). This covers the
// Section 4.4 node-weighted Steiner instances, whose only positively
// weighted vertices are the set vertices S_i, ~S_i.
func NodeWeightedSteinerEnum(g *graph.Graph, terminals []int) (int64, error) {
	n := g.N()
	var positive []int
	for v := 0; v < n; v++ {
		if g.VertexWeight(v) > 0 {
			positive = append(positive, v)
		}
	}
	if len(positive) > 22 {
		return 0, fmt.Errorf("node-weighted steiner enumeration limited to 22 positive-weight vertices, got %d", len(positive))
	}
	if len(terminals) == 0 {
		return 0, nil
	}
	const inf = int64(math.MaxInt64 / 4)
	best := inf
	subsets := 1 << uint(len(positive))
	allowed := make([]bool, n)
	scratch := newBFSScratch(n)
	for mask := 0; mask < subsets; mask++ {
		var weight int64
		for v := 0; v < n; v++ {
			allowed[v] = g.VertexWeight(v) == 0
		}
		for i, v := range positive {
			if mask>>uint(i)&1 == 1 {
				allowed[v] = true
				weight += g.VertexWeight(v)
			}
		}
		// Terminals are always usable; they pay their own weight if positive
		// (in the paper's instances terminals have weight 0).
		for _, term := range terminals {
			if !allowed[term] {
				weight += g.VertexWeight(term)
				allowed[term] = true
			}
		}
		if weight >= best {
			continue
		}
		if scratch.terminalsConnected(g, terminals, allowed) {
			best = weight
		}
	}
	if best >= inf {
		return 0, fmt.Errorf("terminals not connectable")
	}
	return best, nil
}

// HasNodeSteinerWithin decides whether the terminals can be connected by a
// subgraph whose positive-weight vertices total at most budget (terminals
// and zero-weight vertices are free when their weight is zero; positive
// terminals count). It enumerates light subsets of the positive vertices
// with weight pruning, so a small budget is cheap even when the number of
// positive vertices is large.
func HasNodeSteinerWithin(g *graph.Graph, terminals []int, budget int64) (bool, error) {
	if len(terminals) == 0 {
		return true, nil
	}
	n := g.N()
	var positive []int
	var mandatory int64
	isTerminal := make([]bool, n)
	for _, v := range terminals {
		if v < 0 || v >= n {
			return false, fmt.Errorf("terminal %d out of range", v)
		}
		isTerminal[v] = true
		mandatory += g.VertexWeight(v)
	}
	if mandatory > budget {
		return false, nil
	}
	for v := 0; v < n; v++ {
		if g.VertexWeight(v) > 0 && !isTerminal[v] {
			positive = append(positive, v)
		}
	}
	allowed := make([]bool, n)
	scratch := newBFSScratch(n)
	var try func(idx int, remaining int64) bool
	try = func(idx int, remaining int64) bool {
		if scratch.terminalsConnected(g, terminals, allowed) {
			return true
		}
		for i := idx; i < len(positive); i++ {
			v := positive[i]
			w := g.VertexWeight(v)
			if w > remaining {
				continue
			}
			allowed[v] = true
			if try(i+1, remaining-w) {
				return true
			}
			allowed[v] = false
		}
		return false
	}
	for v := 0; v < n; v++ {
		allowed[v] = isTerminal[v] || g.VertexWeight(v) == 0
	}
	return try(0, budget-mandatory), nil
}

// HasDirectedSteinerWithin decides whether all terminals are reachable
// from root through a subgraph whose positive-weight arcs total at most
// budget (zero-weight arcs are free), on a fresh DirSteinerOracle.
func HasDirectedSteinerWithin(d *graph.Digraph, root int, terminals []int, budget int64) (bool, error) {
	return new(DirSteinerOracle).HasDirectedSteinerWithin(d, root, terminals, budget)
}

// DirSteinerOracle is a reusable directed Steiner decision evaluator: it
// owns the positive-arc list, the enabled-arc stack and the
// generation-stamped BFS scratch, so a verification worker holding one
// across thousands of pairs stops paying per-call allocation. The zero
// value is ready to use. Not safe for concurrent use.
type DirSteinerOracle struct {
	positive []graph.Arc
	enabled  [][2]int
	seen     []int32
	gen      int32
	queue    []int
}

func (o *DirSteinerOracle) grow(n int) {
	if len(o.seen) < n {
		o.seen = make([]int32, n)
		o.gen = 0
	}
	if cap(o.queue) < n {
		o.queue = make([]int, 0, n)
	}
}

// HasDirectedSteinerWithin decides whether all terminals are reachable
// from root through a subgraph whose positive-weight arcs total at most
// budget (zero-weight arcs are free). Light subsets of the positive arcs
// are enumerated with weight pruning, on the oracle's arena. The root and
// every terminal must lie in [0, n).
func (o *DirSteinerOracle) HasDirectedSteinerWithin(d *graph.Digraph, root int, terminals []int, budget int64) (bool, error) {
	n := d.N()
	if err := checkDirSteinerQuery(n, root, terminals); err != nil {
		return false, err
	}
	o.grow(n)
	o.positive = o.positive[:0]
	for u := 0; u < n; u++ {
		for _, h := range d.OutNeighbors(u) {
			if h.Weight > 0 {
				o.positive = append(o.positive, graph.Arc{From: u, To: h.To, Weight: h.Weight})
			}
		}
	}
	o.enabled = o.enabled[:0]
	var try func(idx int, remaining int64) bool
	try = func(idx int, remaining int64) bool {
		if o.allReachable(d, root, terminals) {
			return true
		}
		for i := idx; i < len(o.positive); i++ {
			a := o.positive[i]
			if a.Weight > remaining {
				continue
			}
			o.enabled = append(o.enabled, [2]int{a.From, a.To})
			if try(i+1, remaining-a.Weight) {
				return true
			}
			o.enabled = o.enabled[:len(o.enabled)-1]
		}
		return false
	}
	return try(0, budget), nil
}

// allReachable reports whether every terminal is reachable from root
// through free and enabled arcs, with generation-stamped seen marks (no
// clearing) and a linear scan of the small enabled stack.
func (o *DirSteinerOracle) allReachable(d *graph.Digraph, root int, terminals []int) bool {
	o.gen++
	o.queue = o.queue[:0]
	o.queue = append(o.queue, root)
	o.seen[root] = o.gen
	for head := 0; head < len(o.queue); head++ {
		v := o.queue[head]
		for _, h := range d.OutNeighbors(v) {
			usable := h.Weight == 0
			if !usable {
				for _, e := range o.enabled {
					if e[0] == v && e[1] == h.To {
						usable = true
						break
					}
				}
			}
			if usable && o.seen[h.To] != o.gen {
				o.seen[h.To] = o.gen
				o.queue = append(o.queue, h.To)
			}
		}
	}
	for _, term := range terminals {
		if o.seen[term] != o.gen {
			return false
		}
	}
	return true
}

// bfsScratch holds reusable BFS buffers so that subset-enumeration solvers
// (which run one connectivity probe per candidate subset) do not allocate
// per probe. Seen-marks are epoch-stamped, so resets are O(1).
type bfsScratch struct {
	stamp []int32
	epoch int32
	queue []int
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{stamp: make([]int32, n), queue: make([]int, 0, n)}
}

// terminalsConnected reports whether every terminal is reachable from
// terminals[0] through vertices marked allowed.
func (s *bfsScratch) terminalsConnected(g *graph.Graph, terminals []int, allowed []bool) bool {
	s.epoch++
	epoch := s.epoch
	queue := s.queue[:0]
	queue = append(queue, terminals[0])
	s.stamp[terminals[0]] = epoch
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range g.Neighbors(v) {
			if allowed[h.To] && s.stamp[h.To] != epoch {
				s.stamp[h.To] = epoch
				queue = append(queue, h.To)
			}
		}
	}
	s.queue = queue
	for _, term := range terminals {
		if s.stamp[term] != epoch {
			return false
		}
	}
	return true
}

// DirectedSteinerEnum computes the minimum total arc weight of a subgraph
// in which every terminal is reachable from root, enumerating subsets of
// the positive-weight arcs (zero-weight arcs are free, negative ones
// unusable; limit 22 positive arcs). This covers the Section 4.4 directed
// Steiner instances, and it is the tests' reference for
// DirSteinerOracle.
func DirectedSteinerEnum(d *graph.Digraph, root int, terminals []int) (int64, error) {
	n := d.N()
	if err := checkDirSteinerQuery(n, root, terminals); err != nil {
		return 0, err
	}
	// out[v] lists v's usable arcs; bit is the arc's index among the
	// positive-weight arcs, -1 for a free arc.
	type arc struct{ to, bit int }
	out := make([][]arc, n)
	var weights []int64
	for _, a := range d.Arcs() {
		bit := -1
		switch {
		case a.Weight < 0:
			continue
		case a.Weight > 0:
			bit = len(weights)
			weights = append(weights, a.Weight)
		}
		out[a.From] = append(out[a.From], arc{to: a.To, bit: bit})
	}
	if len(weights) > 22 {
		return 0, fmt.Errorf("directed steiner enumeration limited to 22 positive-weight arcs, got %d", len(weights))
	}
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	reachable := func(mask int) bool {
		clear(seen)
		queue = append(queue[:0], root)
		seen[root] = true
		for head := 0; head < len(queue); head++ {
			for _, a := range out[queue[head]] {
				if (a.bit < 0 || mask>>uint(a.bit)&1 == 1) && !seen[a.to] {
					seen[a.to] = true
					queue = append(queue, a.to)
				}
			}
		}
		for _, term := range terminals {
			if !seen[term] {
				return false
			}
		}
		return true
	}
	all := 1<<uint(len(weights)) - 1
	if !reachable(all) {
		return 0, fmt.Errorf("terminals not reachable from root")
	}
	var best int64
	for _, w := range weights {
		best += w
	}
	for mask := 0; mask < all; mask++ {
		var weight int64
		for i, w := range weights {
			if mask>>uint(i)&1 == 1 {
				weight += w
			}
		}
		if weight < best && reachable(mask) {
			best = weight
		}
	}
	return best, nil
}

// checkDirSteinerQuery rejects a root or terminal outside [0, n).
func checkDirSteinerQuery(n, root int, terminals []int) error {
	if root < 0 || root >= n {
		return fmt.Errorf("root %d out of range", root)
	}
	for _, v := range terminals {
		if v < 0 || v >= n {
			return fmt.Errorf("terminal %d out of range", v)
		}
	}
	return nil
}

type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(v int) int {
	for uf.parent[v] != v {
		uf.parent[v] = uf.parent[uf.parent[v]]
		v = uf.parent[v]
	}
	return v
}

// union merges the sets of a and b; it returns false if they were already
// in the same set.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf.parent[ra] = rb
	return true
}
