package solver

import (
	"testing"

	"congesthard/internal/graph"
)

// fuzzMaxN bounds the fuzzed digraphs so the brute-force reference stays
// cheap: its enumeration is at most 9! arc-following sequences.
const fuzzMaxN = 9

// decodeHamInput turns fuzz bytes into a digraph with 1..fuzzMaxN vertices
// and a query: data[0] picks n, data[1] the start, data[2] the end (-1 for
// any endpoint), and the remaining bytes are a little-endian bitmap over
// the ordered pairs (u, v), u != v, in row-major order — bit set means arc
// u -> v. Missing bytes read as zero.
func decodeHamInput(data []byte) (d *graph.Digraph, start, end int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%fuzzMaxN
	start = at(1) % n
	end = at(2)%(n+1) - 1
	d = graph.NewDigraph(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if at(3+bit/8)>>uint(bit%8)&1 == 1 {
				d.MustAddArc(u, v)
			}
			bit++
		}
	}
	return d, start, end
}

// encodeHamInput is decodeHamInput's inverse, for writing seed cases.
func encodeHamInput(n, start, end int, arcs [][2]int) []byte {
	data := make([]byte, 3+(n*(n-1)+7)/8)
	data[0], data[1], data[2] = byte(n-1), byte(start), byte(end+1)
	for _, a := range arcs {
		u, v := a[0], a[1]
		bit := u*(n-1) + v
		if v > u {
			bit--
		}
		data[3+bit/8] |= 1 << uint(bit%8)
	}
	return data
}

// bruteHamPath enumerates every sequence of distinct vertices that starts
// at start and follows arcs, and reports whether one covers all vertices
// and, if end >= 0, stops at end.
func bruteHamPath(d *graph.Digraph, start, end int) bool {
	n := d.N()
	used := make([]bool, n)
	var extend func(head, length int) bool
	extend = func(head, length int) bool {
		if length == n {
			return end < 0 || head == end
		}
		for v := 0; v < n; v++ {
			if !used[v] && d.HasArc(head, v) {
				used[v] = true
				if extend(v, length+1) {
					return true
				}
				used[v] = false
			}
		}
		return false
	}
	used[start] = true
	return extend(start, 1)
}

// FuzzDirectedHamiltonianPath checks that the word search
// (DirectedHamiltonianPathFrom and the oracle's decision variant, n >= 2),
// the general slice backtracker and brute-force enumeration agree on small
// digraphs, and that every returned path is valid.
func FuzzDirectedHamiltonianPath(f *testing.F) {
	chain := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}
	f.Add(encodeHamInput(6, 0, 5, chain))
	f.Add(encodeHamInput(6, 0, -1, chain))
	f.Add(encodeHamInput(6, 1, -1, chain))
	backArcs := append(append([][2]int(nil), chain...), [2]int{3, 1}, [2]int{5, 2}, [2]int{4, 0})
	f.Add(encodeHamInput(6, 0, 5, backArcs))
	f.Add(encodeHamInput(6, 3, -1, backArcs))
	// Out-star from 0 plus one arc between leaves: no Hamiltonian path.
	f.Add(encodeHamInput(5, 0, -1, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}}))
	f.Add(encodeHamInput(1, 0, 0, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, start, end := decodeHamInput(data)
		want := bruteHamPath(d, start, end)
		var ref HamiltonOracle
		refPath, refFound, err := ref.pathFrom(d, start, end)
		if err != nil {
			t.Fatal(err)
		}
		path, found, err := DirectedHamiltonianPathFrom(d, start, end)
		if err != nil {
			t.Fatal(err)
		}
		var o HamiltonOracle
		has, err := o.HasDirectedHamiltonianPathFrom(d, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if found != want || has != want || refFound != want {
			t.Fatalf("n=%d start=%d end=%d: brute %v, path search %v, decision %v, slice search %v",
				d.N(), start, end, want, found, has, refFound)
		}
		if found && !isPathBetween(d, path, start, end) {
			t.Fatalf("word search returned invalid path %v (start=%d end=%d)", path, start, end)
		}
		if refFound && !isPathBetween(d, refPath, start, end) {
			t.Fatalf("slice search returned invalid path %v (start=%d end=%d)", refPath, start, end)
		}
	})
}
