package solver

import (
	"fmt"
	"math/bits"

	"congesthard/internal/graph"
)

// DirectedHamiltonianPath searches for a directed Hamiltonian path in d
// (any endpoints). It returns the path as a vertex sequence, or found =
// false. Backtracking with forced-move propagation and reachability
// pruning; practical on the paper's highly structured constructions up to
// a few hundred vertices, and on random digraphs to ~30 vertices.
func DirectedHamiltonianPath(d *graph.Digraph) ([]int, bool, error) {
	n := d.N()
	if n == 0 {
		return nil, false, nil
	}
	for start := 0; start < n; start++ {
		if path, found, err := DirectedHamiltonianPathFrom(d, start, -1); err != nil || found {
			return path, found, err
		}
	}
	return nil, false, nil
}

// DirectedHamiltonianPathFrom searches for a directed Hamiltonian path
// starting at start and, if end >= 0, ending at end. Digraphs of 2 to 64
// vertices run the single-word bitset search (ham64, on the stack, so the
// returned path is the call's only allocation); all others run the
// general slice backtracker (hamSearch).
func DirectedHamiltonianPathFrom(d *graph.Digraph, start, end int) ([]int, bool, error) {
	if n := d.N(); n >= 2 && n <= 64 {
		if err := checkEndpoints(n, start, end); err != nil {
			return nil, false, err
		}
		var b ham64
		if !b.run(d, start, end) {
			return nil, false, nil
		}
		path := make([]int, n)
		for i := range path {
			path[i] = int(b.path[i])
		}
		return path, true, nil
	}
	var o HamiltonOracle
	path, found, err := o.pathFrom(d, start, end)
	if err != nil || !found {
		return nil, found, err
	}
	return append([]int(nil), path...), true, nil
}

// checkEndpoints rejects a start outside [0, n) or an end >= n.
func checkEndpoints(n, start, end int) error {
	if start < 0 || start >= n || end >= n {
		return fmt.Errorf("endpoints out of range: start=%d end=%d n=%d", start, end, n)
	}
	return nil
}

// HamiltonOracle is a reusable directed-Hamiltonian-path decision
// evaluator: it owns the scratch of both searches — the single-word
// bitset search (ham64) that answers every digraph of 2 to 64 vertices,
// and the general slice backtracker (hamSearch: visited bitset, BFS queue
// and epoch marks, path stack) for the rest — so a verification worker
// holding one across many same-size digraphs pays no per-call
// allocation. The hamlb delta workers keep one warm; the package-level
// functions need no oracle, since ham64 fits on their stack. The zero
// value is ready to use. Not safe for concurrent use.
type HamiltonOracle struct {
	s hamSearch
	b ham64
}

// HasDirectedHamiltonianPathFrom reports whether d has a directed
// Hamiltonian path starting at start and, if end >= 0, ending at end,
// reusing the oracle's scratch.
func (o *HamiltonOracle) HasDirectedHamiltonianPathFrom(d *graph.Digraph, start, end int) (bool, error) {
	if n := d.N(); n >= 2 && n <= 64 {
		if err := checkEndpoints(n, start, end); err != nil {
			return false, err
		}
		return o.b.run(d, start, end), nil
	}
	_, found, err := o.pathFrom(d, start, end)
	return found, err
}

// pathFrom runs the search; the returned path aliases the oracle's arena
// and is only valid until the next call.
func (o *HamiltonOracle) pathFrom(d *graph.Digraph, start, end int) ([]int, bool, error) {
	n := d.N()
	if n > 4096 {
		return nil, false, fmt.Errorf("hamiltonian search limited to 4096 vertices, got %d", n)
	}
	if err := checkEndpoints(n, start, end); err != nil {
		return nil, false, err
	}
	if n == 1 {
		if end == 0 || end < 0 {
			o.s.path = append(o.s.path[:0], 0)
			return o.s.path, true, nil
		}
		return nil, false, nil
	}
	s := &o.s
	s.grow(n)
	s.d, s.end = d, end
	s.path = append(s.path[:0], start)
	s.visited.set(start)
	if s.search(start) {
		return s.path, true, nil
	}
	return nil, false, nil
}

type hamSearch struct {
	d       *graph.Digraph
	n       int
	end     int
	visited bitset
	path    []int
	// seen/queue are reused BFS scratch; seen[v] == epoch marks v reached.
	// epoch is monotonic across searches, so stale seen entries from a
	// previous call never match.
	seen  []int
	queue []int
	epoch int
}

// grow (re)sizes the arena for n-vertex digraphs and clears the visited
// set left over from the previous search.
func (s *hamSearch) grow(n int) {
	if s.n != n {
		s.n = n
		s.visited = newBitset(n)
		s.seen = make([]int, n)
		s.queue = make([]int, 0, n)
		s.path = make([]int, 0, n)
		s.epoch = 0
		return
	}
	for i := range s.visited {
		s.visited[i] = 0
	}
}

// reachableForward checks that every unvisited vertex is reachable from
// head through unvisited vertices — a necessary condition for the path to
// visit them all.
func (s *hamSearch) reachableForward(head int) bool {
	s.epoch++
	s.queue = s.queue[:0]
	s.queue = append(s.queue, head)
	s.seen[head] = s.epoch
	reached := 0
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		for _, h := range s.d.OutNeighbors(v) {
			u := h.To
			if s.seen[u] != s.epoch && !s.visited.get(u) {
				s.seen[u] = s.epoch
				s.queue = append(s.queue, u)
				reached++
			}
		}
	}
	return reached == s.n-len(s.path)
}

// reachableBackward checks (for a fixed end) that every unvisited vertex
// can reach end through unvisited vertices.
func (s *hamSearch) reachableBackward() bool {
	s.epoch++
	s.queue = s.queue[:0]
	s.queue = append(s.queue, s.end)
	s.seen[s.end] = s.epoch
	reached := 1
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		for _, h := range s.d.InNeighbors(v) {
			u := h.To
			if s.seen[u] != s.epoch && !s.visited.get(u) {
				s.seen[u] = s.epoch
				s.queue = append(s.queue, u)
				reached++
			}
		}
	}
	return reached == s.n-len(s.path)
}

// feasible performs the cheap degree-based death tests: every unvisited
// vertex needs an available in-neighbor (unvisited, or the current head,
// and only one vertex may depend on the head), and a vertex with no
// unvisited out-neighbor can only be the path's final vertex. The returned
// forced vertex (or -1) is a vertex whose only remaining in-neighbor is
// head; it must be the immediate successor, which prunes branching on the
// long degree-2 chains of the paper's constructions.
func (s *hamSearch) feasible(head int) (bool, int) {
	forced := -1
	sinks := 0
	for v := 0; v < s.n; v++ {
		if s.visited.get(v) {
			continue
		}
		inOK := false
		viaHead := false
		for _, h := range s.d.InNeighbors(v) {
			if !s.visited.get(h.To) {
				inOK = true
				break
			}
			if h.To == head {
				viaHead = true
			}
		}
		if !inOK {
			if !viaHead {
				return false, -1
			}
			if forced >= 0 {
				return false, -1 // two vertices demand the same successor slot
			}
			forced = v
		}
		outOK := false
		for _, h := range s.d.OutNeighbors(v) {
			if !s.visited.get(h.To) {
				outOK = true
				break
			}
		}
		if !outOK {
			if s.end >= 0 {
				if v != s.end {
					return false, -1
				}
			} else {
				sinks++
				if sinks > 1 {
					return false, -1
				}
			}
		}
	}
	return true, forced
}

// search extends the path from head; returns true when a full path
// (respecting the end constraint) is found. s.path holds the result.
func (s *hamSearch) search(head int) bool {
	if len(s.path) == s.n {
		return s.end < 0 || head == s.end
	}
	ok, forced := s.feasible(head)
	if !ok {
		return false
	}
	if !s.reachableForward(head) {
		return false
	}
	if s.end >= 0 && !s.reachableBackward() {
		return false
	}
	tryNext := func(next int) bool {
		if s.visited.get(next) {
			return false
		}
		if s.end >= 0 && next == s.end && len(s.path) != s.n-1 {
			return false // reaching end early wastes it
		}
		s.visited.set(next)
		s.path = append(s.path, next)
		if s.search(next) {
			return true
		}
		s.path = s.path[:len(s.path)-1]
		s.visited.clear(next)
		return false
	}
	if forced >= 0 {
		// The forced vertex must be head's immediate successor; it is
		// necessarily an out-neighbor (its in-neighbors include head).
		return tryNext(forced)
	}
	for _, h := range s.d.OutNeighbors(head) {
		if tryNext(h.To) {
			return true
		}
	}
	return false
}

// ham64 is the n <= 64 single-word specialization of hamSearch: adjacency
// is an array of 64-bit rows (out[v] = the set of heads of v's out-arcs,
// in[v] = the set of tails of its in-arcs), so the degree-based death
// tests and both reachability prunes of the general search become a
// handful of word operations per expanded node instead of adjacency scans
// and queue-based BFS. Verdicts match hamSearch exactly (the prunes are
// the same necessary conditions; only the branch order differs, which
// cannot change existence). The partial path is kept in path[:depth], so
// a successful run leaves the Hamiltonian path found in path[:n].
type ham64 struct {
	n    int
	end  int
	full uint64 // mask of the n valid vertex bits
	out  [64]uint64
	in   [64]uint64

	visited uint64
	path    [64]uint8
}

// run decides whether d (2 <= n <= 64 vertices) has a directed
// Hamiltonian path from start to end (end < 0: any endpoint); when it
// does, the path is left in b.path[:n].
func (b *ham64) run(d *graph.Digraph, start, end int) bool {
	n := d.N()
	b.n, b.end = n, end
	for v := 0; v < n; v++ {
		var outRow, inRow uint64
		for _, h := range d.OutNeighbors(v) {
			outRow |= uint64(1) << uint(h.To)
		}
		for _, h := range d.InNeighbors(v) {
			inRow |= uint64(1) << uint(h.To)
		}
		b.out[v], b.in[v] = outRow, inRow
	}
	if n == 64 {
		b.full = ^uint64(0)
	} else {
		b.full = uint64(1)<<uint(n) - 1
	}
	b.visited = uint64(1) << uint(start)
	b.path[0] = uint8(start)
	return b.search(start, 1)
}

// search extends a partial path of the given length ending at head.
//
//hardness:hotpath
func (b *ham64) search(head, depth int) bool {
	if depth == b.n {
		return b.end < 0 || head == b.end
	}
	unvisited := b.full &^ b.visited
	// Degree death tests + forced-successor detection (see
	// hamSearch.feasible for the semantics being mirrored).
	forced := -1
	sinks := 0
	for m := unvisited; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		if b.in[v]&unvisited == 0 {
			if b.in[v]>>uint(head)&1 == 0 {
				return false
			}
			if forced >= 0 {
				return false // two vertices demand the same successor slot
			}
			forced = v
		}
		if b.out[v]&unvisited == 0 {
			if b.end >= 0 {
				if v != b.end {
					return false
				}
			} else {
				sinks++
				if sinks > 1 {
					return false
				}
			}
		}
	}
	// Forward reachability: every unvisited vertex must be reachable from
	// head through unvisited vertices.
	reached := b.out[head] & unvisited
	for frontier := reached; frontier != 0; {
		var next uint64
		for m := frontier; m != 0; m &= m - 1 {
			next |= b.out[bits.TrailingZeros64(m)]
		}
		next &= unvisited &^ reached
		reached |= next
		frontier = next
	}
	if reached != unvisited {
		return false
	}
	// Backward reachability to a fixed end.
	if b.end >= 0 {
		reached = uint64(1) << uint(b.end)
		for frontier := reached; frontier != 0; {
			var next uint64
			for m := frontier; m != 0; m &= m - 1 {
				next |= b.in[bits.TrailingZeros64(m)]
			}
			next &= unvisited &^ reached
			reached |= next
			frontier = next
		}
		if reached != unvisited {
			return false
		}
	}
	if forced >= 0 {
		return b.try(forced, depth)
	}
	for m := b.out[head] & unvisited; m != 0; m &= m - 1 {
		if b.try(bits.TrailingZeros64(m), depth) {
			return true
		}
	}
	return false
}

// try appends next to a partial path of the given length and searches on,
// undoing the step if that fails.
func (b *ham64) try(next, depth int) bool {
	if b.end >= 0 && next == b.end && depth != b.n-1 {
		return false // reaching end early wastes it
	}
	bit := uint64(1) << uint(next)
	b.visited |= bit
	b.path[depth] = uint8(next)
	if b.search(next, depth+1) {
		return true
	}
	b.visited &^= bit
	return false
}

// DirectedHamiltonianCycle searches for a directed Hamiltonian cycle.
func DirectedHamiltonianCycle(d *graph.Digraph) ([]int, bool, error) {
	n := d.N()
	if n == 0 {
		return nil, false, nil
	}
	if n == 1 {
		return nil, false, nil // no self loops, so no 1-cycle
	}
	// A Hamiltonian cycle through vertex 0 is a Hamiltonian path from 0 to
	// some in-neighbor of 0... equivalently: for each in-neighbor p of 0,
	// search a path 0 -> ... -> p.
	for _, h := range d.InNeighbors(0) {
		path, found, err := DirectedHamiltonianPathFrom(d, 0, h.To)
		if err != nil {
			return nil, false, err
		}
		if found {
			return path, true, nil
		}
	}
	return nil, false, nil
}

// HamiltonianPath searches for an undirected Hamiltonian path by running
// the directed solver on the symmetric orientation.
func HamiltonianPath(g *graph.Graph) ([]int, bool, error) {
	return DirectedHamiltonianPath(symmetric(g))
}

// HamiltonianCycle searches for an undirected Hamiltonian cycle.
func HamiltonianCycle(g *graph.Graph) ([]int, bool, error) {
	if g.N() < 3 {
		return nil, false, nil
	}
	return DirectedHamiltonianCycle(symmetric(g))
}

func symmetric(g *graph.Graph) *graph.Digraph {
	d := graph.NewDigraph(g.N())
	for _, e := range g.Edges() {
		d.MustAddArc(e.U, e.V)
		d.MustAddArc(e.V, e.U)
	}
	return d
}

// IsDirectedHamiltonianPath validates a claimed Hamiltonian path.
func IsDirectedHamiltonianPath(d *graph.Digraph, path []int) bool {
	if len(path) != d.N() {
		return false
	}
	seen := make([]bool, d.N())
	for i, v := range path {
		if v < 0 || v >= d.N() || seen[v] {
			return false
		}
		seen[v] = true
		if i > 0 && !d.HasArc(path[i-1], v) {
			return false
		}
	}
	return true
}

// IsHamiltonianCycle validates a claimed undirected Hamiltonian cycle given
// as a vertex sequence (the closing edge back to the first vertex is
// required).
func IsHamiltonianCycle(g *graph.Graph, cycle []int) bool {
	if len(cycle) != g.N() || g.N() < 3 {
		return false
	}
	seen := make([]bool, g.N())
	for i, v := range cycle {
		if v < 0 || v >= g.N() || seen[v] {
			return false
		}
		seen[v] = true
		next := cycle[(i+1)%len(cycle)]
		if !g.HasEdge(v, next) {
			return false
		}
	}
	return true
}
