package solver

import (
	"fmt"
	"math"
	"sort"

	"congesthard/internal/graph"
)

// MinDominatingSet computes a minimum-weight dominating set of g exactly
// (vertex weights; use unit weights for the cardinality version). It uses
// branch and bound on the lowest-indexed undominated vertex and is
// practical up to roughly 60 vertices on structured instances.
func MinDominatingSet(g *graph.Graph) (int64, []int, error) {
	weight, set, found, err := MinDominatingSetWithin(g, math.MaxInt64/2)
	if err == nil && !found {
		err = fmt.Errorf("internal: no dominating set found in %d-vertex graph", g.N())
	}
	if err != nil {
		return 0, nil, err
	}
	return weight, set, nil
}

// MinDominatingSetWithin computes the minimum-weight dominating set of
// weight at most cap if one exists. found reports whether any dominating
// set within the cap was found; the search prunes aggressively above cap,
// which makes NO answers much cheaper than a full minimization.
func MinDominatingSetWithin(g *graph.Graph, cap int64) (weight int64, set []int, found bool, err error) {
	weight, set, found, err = new(MDSOracle).solve(g, nil, cap, false)
	if !found {
		return 0, nil, false, err
	}
	return weight, append([]int{}, set...), true, nil
}

// HasDominatingSetOfSize reports whether g has a dominating set of
// cardinality at most size (the decision predicate of Theorem 2.1).
func HasDominatingSetOfSize(g *graph.Graph, size int) (bool, error) {
	return new(MDSOracle).HasDominatingSetOfSize(g, size)
}

// MinDominatingSetOfTargets computes a minimum-weight set of vertices
// (drawn from the whole graph) that dominates every vertex in targets —
// the sub-problem the Section 5.1 limitation protocols solve per side
// ("cover optimally all the vertices in V_A, possibly using cut
// vertices").
func MinDominatingSetOfTargets(g *graph.Graph, targets []int) (int64, []int, error) {
	if len(targets) == 0 {
		return 0, []int{}, nil
	}
	weight, set, found, err := new(MDSOracle).solve(g, targets, math.MaxInt64/2, false)
	if err == nil && !found {
		err = fmt.Errorf("internal: no covering set found")
	}
	if err != nil {
		return 0, nil, err
	}
	return weight, append([]int{}, set...), nil
}

// MinKDominatingSet computes a minimum-weight set S such that every vertex
// is within hop distance k of S (the k-MDS problem of Section 4.3),
// implemented as MDS on the k-th power graph.
func MinKDominatingSet(g *graph.Graph, k int) (int64, []int, error) {
	if k < 1 {
		return 0, nil, fmt.Errorf("k must be >= 1, got %d", k)
	}
	return MinDominatingSet(g.Power(k))
}

// MDSOracle is a reusable exact minimum-dominating-set evaluator: it owns
// the branch-and-bound scratch (closed-neighborhood bitsets, branch orders,
// per-depth bitsets), so a worker holding one across many same-size graphs
// pays no per-call allocation. The package-level functions delegate to a
// fresh oracle; verification workers keep one warm. The zero value is
// ready to use. Not safe for concurrent use.
type MDSOracle struct {
	n            int
	closed       []bitset
	candidatesOf [][]int
	scratch      []bitset
	current      []int
	bestSet      []int
	initBuf      bitset

	// per-search state
	g              *graph.Graph
	unit           bool
	best           int64
	found          bool
	useGreedyBound bool
	minWeight      int64
	maxCover       int
}

// HasDominatingSetOfSize reports whether g has a dominating set of
// cardinality at most size (vertex weights read as 1), reusing the
// oracle's scratch.
func (o *MDSOracle) HasDominatingSetOfSize(g *graph.Graph, size int) (bool, error) {
	_, _, found, err := o.solve(g, nil, int64(size), true)
	return found, err
}

// HasDominatingSetOfWeight reports whether g has a dominating set of total
// vertex weight at most cap, reusing the oracle's scratch: the found bit
// of MinDominatingSetWithin.
func (o *MDSOracle) HasDominatingSetOfWeight(g *graph.Graph, cap int64) (bool, error) {
	_, _, found, err := o.solve(g, nil, cap, false)
	return found, err
}

// solve is the one entry of every exact MDS query: it validates g and the
// targets, then finds a minimum dominating set of weight at most cap (unit
// weights if unit). Only the vertices in targets need domination; nil
// targets means every vertex. found is false if every such set exceeds
// cap. The returned set aliases the oracle's storage and is only valid
// until the next call.
func (o *MDSOracle) solve(g *graph.Graph, targets []int, cap int64, unit bool) (weight int64, set []int, found bool, err error) {
	n := g.N()
	if n > 512 {
		return 0, nil, false, fmt.Errorf("exact MDS limited to 512 vertices, got %d", n)
	}
	for _, v := range targets {
		if v < 0 || v >= n {
			return 0, nil, false, fmt.Errorf("target %d out of range", v)
		}
	}
	if n == 0 {
		return 0, nil, true, nil
	}
	o.grow(n)
	// The search starts with every non-target already dominated.
	init := o.initBuf
	for i := range init {
		init[i] = 0
	}
	if targets != nil {
		for v := 0; v < n; v++ {
			init.set(v)
		}
		for _, v := range targets {
			init.clear(v)
		}
	}
	weight, set, found = o.search(g, init, cap, unit)
	return weight, set, found, nil
}

// grow sizes the arena for n-vertex graphs. It allocates only past the
// capacity earlier sizes left; a smaller graph reslices the same storage,
// so an oracle reused across components of varying size settles at the
// largest.
func (o *MDSOracle) grow(n int) {
	if o.n == n {
		return
	}
	o.n = n
	o.closed = extend(o.closed, n)
	for v := range o.closed {
		o.closed[v] = fitBitset(o.closed[v], n)
	}
	o.candidatesOf = extend(o.candidatesOf, n)
	o.scratch = extend(o.scratch, n+1)
	for i, b := range o.scratch {
		if b != nil { // made on first use by search and recurse
			o.scratch[i] = fitBitset(b, n)
		}
	}
	if cap(o.current) < n {
		o.current = make([]int, 0, n)
	}
	o.initBuf = fitBitset(o.initBuf, n)
}

// extend returns s with length n, keeping every element its capacity
// holds (including those past its length) for reuse.
func extend[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

func (o *MDSOracle) vw(v int) int64 {
	if o.unit {
		return 1
	}
	return o.g.VertexWeight(v)
}

// search runs the capped branch and bound. The returned set aliases the
// oracle's storage and is only valid until the next call.
func (o *MDSOracle) search(g *graph.Graph, dominatedInit bitset, cap int64, unit bool) (int64, []int, bool) {
	n := g.N()
	o.grow(n)
	o.g, o.unit = g, unit
	// closed[v] = N[v] as a bitset.
	for v := 0; v < n; v++ {
		b := o.closed[v]
		for i := range b {
			b[i] = 0
		}
		b.set(v)
		for _, h := range g.Neighbors(v) {
			b.set(h.To)
		}
	}
	// Greedy bound ingredients: the bound is only valid when every vertex
	// weight is at least minWeight >= 1; with zero-weight vertices we fall
	// back to pruning on the accumulated weight alone.
	o.useGreedyBound = true
	o.minWeight = math.MaxInt64
	for v := 0; v < n; v++ {
		w := o.vw(v)
		if w < 1 {
			o.useGreedyBound = false
		}
		if w < o.minWeight {
			o.minWeight = w
		}
	}
	o.maxCover = g.MaxDegree() + 1

	// Branch order is fixed per vertex (N[v] by descending degree), so it
	// is hoisted out of the recursion; the insertion sort reuses the
	// arena's slices, allocating only while a window grows past its
	// high-water mark.
	for v := 0; v < n; v++ {
		candidates := append(o.candidatesOf[v][:0], v)
		for _, h := range g.Neighbors(v) {
			candidates = append(candidates, h.To)
		}
		for i := 1; i < len(candidates); i++ {
			c := candidates[i]
			j := i
			for j > 0 && len(g.Neighbors(candidates[j-1])) < len(g.Neighbors(c)) {
				candidates[j] = candidates[j-1]
				j--
			}
			candidates[j] = c
		}
		o.candidatesOf[v] = candidates
	}

	o.best = cap + 1
	o.found = false
	o.bestSet = o.bestSet[:0]
	o.current = o.current[:0]

	init := o.scratch[n]
	if init == nil {
		init = newBitset(n)
		o.scratch[n] = init
	}
	copy(init, dominatedInit)
	o.recurse(init, 0, 0)
	if !o.found {
		return 0, nil, false
	}
	sort.Ints(o.bestSet)
	return o.best, o.bestSet, true
}

//hardness:hotpath
func (o *MDSOracle) recurse(dominated bitset, weight int64, depth int) {
	n := o.n
	undominated := n - dominated.count()
	if undominated == 0 {
		if weight < o.best {
			o.best = weight
			o.found = true
			o.bestSet = append(o.bestSet[:0], o.current...)
		}
		return
	}
	// Greedy lower bound: every added vertex dominates at most maxCover
	// new vertices and costs at least minWeight.
	if o.useGreedyBound {
		lb := int64((undominated+o.maxCover-1)/o.maxCover) * o.minWeight
		if weight+lb >= o.best {
			return
		}
	}
	if weight >= o.best {
		return
	}
	v := dominated.firstClear(n)
	// v must be dominated by some vertex in N[v]; branch over choices,
	// heaviest domination gain first.
	next := o.scratch[depth]
	if next == nil {
		next = newBitset(n)
		o.scratch[depth] = next
	}
	for _, c := range o.candidatesOf[v] {
		copy(next, dominated)
		next.orInto(o.closed[c])
		o.current = append(o.current, c) //nolint:hardlint/hotalloc arena slice has cap n from grow(); never reallocates
		o.recurse(next, weight+o.vw(c), depth+1)
		o.current = o.current[:len(o.current)-1]
	}
}

// IsDominatingSet reports whether set dominates every vertex of g.
func IsDominatingSet(g *graph.Graph, set []int) bool {
	n := g.N()
	dominated := newBitset(n)
	for _, v := range set {
		if v < 0 || v >= n {
			return false
		}
		dominated.set(v)
		for _, h := range g.Neighbors(v) {
			dominated.set(h.To)
		}
	}
	return dominated.count() == n
}

// IsKDominatingSet reports whether every vertex of g is within hop
// distance k of the set.
func IsKDominatingSet(g *graph.Graph, set []int, k int) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	const unreached = -1
	dist := make([]int, n)
	for i := range dist {
		dist[i] = unreached
	}
	queue := make([]int, 0, n)
	for _, v := range set {
		if v < 0 || v >= n {
			return false
		}
		if dist[v] == unreached {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= k {
			continue
		}
		for _, h := range g.Neighbors(v) {
			if dist[h.To] == unreached {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	for _, d := range dist {
		if d == unreached {
			return false
		}
	}
	return true
}
