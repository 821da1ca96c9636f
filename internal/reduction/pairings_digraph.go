package reduction

import (
	"congesthard/internal/algorithms"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// This file wires concrete algorithm/family pairings for Certify on the
// directed families: the exact collect-and-solve upper bound on the
// directed Hamiltonian path (Theorem 2.2) and directed Steiner (Theorem
// 4.7) families, and a greedy path-walking heuristic that Certify flags
// as not deciding the predicate.

// CollectHamPath decides the Theorem 2.2 predicate exactly: collect the
// whole digraph and run the exact Hamiltonian path solver at the root. A
// Hamiltonian path needs every vertex in one weak component, so a
// component smaller than the instance contributes 0 and the summed total
// stays 0 — disconnected instances certify exactly. Certify
// reports zero mismatches.
func CollectHamPath(fam *hamlb.Family) AlgorithmOf[*graph.Digraph] {
	n, start, end := fam.N(), fam.Start(), fam.End()
	return collectAlgorithm("collect", true, algorithms.CollectFactory,
		&algorithms.RootEval[*graph.Digraph]{New: func() func(*graph.Digraph) (int64, error) {
			var o solver.HamiltonOracle
			return func(component *graph.Digraph) (int64, error) {
				if component.N() != n {
					return 0, nil
				}
				found, err := o.HasDirectedHamiltonianPathFrom(component, start, end)
				if err != nil || !found {
					return 0, err
				}
				return 1, nil
			}
		}},
		func(total int64) bool { return total >= 1 })
}

// GreedyHamPath collects the digraph and answers with a greedy walk from
// start: always step to the smallest-id unvisited out-neighbor, answer
// "yes" iff the walk covers every vertex and halts at end. A found path is
// a real Hamiltonian path, so mistakes are one-sided "no"s on
// yes-instances — the heuristic pairing Certify flags as not
// deciding P.
func GreedyHamPath(fam *hamlb.Family) AlgorithmOf[*graph.Digraph] {
	n, start, end := fam.N(), fam.Start(), fam.End()
	return collectAlgorithm("greedy-path", false, algorithms.CollectFactory,
		algorithms.Stateless(func(component *graph.Digraph) (int64, error) {
			if component.N() != n {
				return 0, nil
			}
			if greedyDirectedPathCovers(component, start, end) {
				return 1, nil
			}
			return 0, nil
		}),
		func(total int64) bool { return total >= 1 })
}

// greedyDirectedPathCovers walks from start, always moving to the
// smallest-id unvisited out-neighbor, and reports whether the walk visits
// every vertex and ends at end.
func greedyDirectedPathCovers(d *graph.Digraph, start, end int) bool {
	n := d.N()
	if start < 0 || start >= n {
		return false
	}
	visited := make([]bool, n)
	visited[start] = true
	cur := start
	for count := 1; count < n; count++ {
		next := -1
		for _, h := range d.OutNeighbors(cur) {
			if !visited[h.To] && (next < 0 || h.To < next) {
				next = h.To
			}
		}
		if next < 0 {
			return false
		}
		visited[next] = true
		cur = next
	}
	return cur == end
}

// CollectDirSteiner decides the Theorem 4.7 predicate exactly: collect
// the whole digraph (arc weights travel in the frames' weight chunks) and
// decide at the root whether a directed Steiner tree of weight at most 2
// rooted at R spans all terminals.
func CollectDirSteiner(fam *kmdslb.DirSteinerFamily) AlgorithmOf[*graph.Digraph] {
	n, root := fam.Inner.N(), fam.Inner.Root()
	terminals := fam.Terminals()
	return collectAlgorithm("collect", true, algorithms.CollectFactory,
		&algorithms.RootEval[*graph.Digraph]{New: func() func(*graph.Digraph) (int64, error) {
			var o solver.DirSteinerOracle
			return func(component *graph.Digraph) (int64, error) {
				if component.N() != n {
					return 0, nil
				}
				ok, err := o.HasDirectedSteinerWithin(component, root, terminals, 2)
				if err != nil || !ok {
					return 0, err
				}
				return 1, nil
			}
		}},
		func(total int64) bool { return total >= 1 })
}
