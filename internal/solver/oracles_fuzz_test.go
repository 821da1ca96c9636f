package solver

import (
	"strings"
	"testing"

	"congesthard/internal/graph"
)

// oracleFuzzMaxN bounds the fuzzed graphs so the brute-force references
// stay cheap: at most 2^9 vertex subsets, and at most
// oracleFuzzMaxPositiveArcs positive arcs for DirectedSteinerEnum.
const (
	oracleFuzzMaxN            = 9
	oracleFuzzMaxPositiveArcs = 12
	oracleFuzzHeader          = 11
)

// oracleQuery is one decoded fuzz case: a weighted graph and a weighted
// digraph on the same n vertices, the size of the warm-up graphs, and
// the parameters of every oracle's query.
type oracleQuery struct {
	g        *graph.Graph
	d        *graph.Digraph
	warmN    int
	mdsSize  int
	mdsCap   int64
	maxEdges int
	terms    []int // Steiner terminals: distinct, non-empty
	root     int
	dirTerms []int
	budget   int64
}

// decodeOracleQuery turns fuzz bytes into an oracleQuery. The header is
// data[0] n = 1..9, data[1] the warm-up size (never n), data[2] the MDS
// size, data[3] the MDS weight cap, data[4] the Steiner edge budget,
// data[5:7] a vertex mask of Steiner terminals, data[7] the directed root,
// data[8:10] a vertex mask of directed terminals and data[10] the directed
// budget. decodeOracleGraphs reads the rest. Missing bytes read as zero.
func decodeOracleQuery(data []byte) oracleQuery {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%oracleFuzzMaxN
	q := oracleQuery{
		warmN:    1 + (n+at(1)%(oracleFuzzMaxN-1))%oracleFuzzMaxN,
		mdsSize:  at(2) % (n + 1),
		mdsCap:   int64(at(3) % 32),
		maxEdges: at(4) % (n + 1),
		root:     at(7) % n,
		budget:   int64(at(10) % 6),
	}
	q.g, q.d = decodeOracleGraphs(data, n)
	for v := 0; v < n; v++ {
		if (at(5)|at(6)<<8)>>uint(v)&1 == 1 {
			q.terms = append(q.terms, v)
		}
		if (at(8)|at(9)<<8)>>uint(v)&1 == 1 {
			q.dirTerms = append(q.dirTerms, v)
		}
	}
	if len(q.terms) == 0 {
		q.terms = []int{n - 1}
	}
	return q
}

// decodeOracleGraphs reads, after the header, n vertex weights in 0..3,
// one byte per vertex pair u < v (bit 0: edge present; bits 1-3: its
// weight in -2..5) and one byte per ordered pair u != v (bit 0: arc
// present; bits 1-7: its weight in 0..2). Positive arcs past the first
// oracleFuzzMaxPositiveArcs are dropped.
func decodeOracleGraphs(data []byte, n int) (*graph.Graph, *graph.Digraph) {
	next := oracleFuzzHeader
	read := func() int {
		next++
		if next-1 < len(data) {
			return int(data[next-1])
		}
		return 0
	}
	g, d := graph.New(n), graph.NewDigraph(n)
	for v := 0; v < n; v++ {
		if err := g.SetVertexWeight(v, int64(read()%4)); err != nil {
			panic(err)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if b := read(); b&1 == 1 {
				g.MustAddWeightedEdge(u, v, int64(b>>1&7)-2)
			}
		}
	}
	positive := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			b := read()
			w := int64(b>>1) % 3
			if b&1 == 0 || (w > 0 && positive == oracleFuzzMaxPositiveArcs) {
				continue
			}
			if w > 0 {
				positive++
			}
			d.MustAddWeightedArc(u, v, w)
		}
	}
	return g, d
}

// agree runs query on a fresh oracle and on one that warm first used on a
// graph of another size, and fails unless both answer want.
func agree[O any, R comparable](t *testing.T, name string, want R, warm func(*O), query func(*O) (R, error)) {
	t.Helper()
	for _, warmed := range []bool{false, true} {
		o := new(O)
		if warmed {
			warm(o)
		}
		got, err := query(o)
		if err != nil || got != want {
			t.Fatalf("%s (warmed=%v): got (%v, %v), want %v", name, warmed, got, err, want)
		}
	}
}

// unitCopy returns g with every vertex and edge weight set to 1.
func unitCopy(g *graph.Graph) *graph.Graph {
	u := graph.New(g.N())
	for _, e := range g.Edges() {
		u.MustAddEdge(e.U, e.V)
	}
	return u
}

// FuzzOraclesMatchBrute checks the arena-backed decision oracles against
// brute-force references on small weighted graphs: MDSOracle (size and
// weight) against BruteMinDominatingSetWeight, MaxISOracle against
// BruteMaxWeightIndependentSet, MaxCutOracle against BruteMaxCut,
// SteinerOracle against BruteSteinerTree on unit weights and
// DirSteinerOracle against DirectedSteinerEnum. Each oracle answers once
// fresh and once after a query on a graph of another size, the reuse
// every verification worker relies on.
func FuzzOraclesMatchBrute(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 3, 5, 4, 0x11, 0, 0, 0xff, 1, 2})
	f.Add([]byte{3, 7, 1, 2, 2, 0x05, 0, 1, 0x04, 0, 1, 1, 2, 3, 1, 1, 1, 3, 1, 0, 1, 5, 1})
	f.Add([]byte{
		5, 2, 2, 4, 3, 0x15, 0, 0, 0x1e, 0, 3, // header
		1, 2, 3, 0, 1, // vertex weights
		1, 3, 0, 5, 1, 0, 7, 1, 0, 9, // edges
		1, 0, 3, 0, 5, 0, 1, 0, 0, 3, 0, 1, 5, 1, 0, 0, 3, 0, 1, 0, // arcs
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := decodeOracleQuery(data)
		g, d := q.g, q.d
		wg, wd := decodeOracleGraphs(data, q.warmN)
		warmTerms := make([]int, q.warmN)
		for v := range warmTerms {
			warmTerms[v] = v
		}

		unit := unitCopy(g)
		gamma, err := BruteMinDominatingSetWeight(unit)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, "MDSOracle.HasDominatingSetOfSize", gamma <= int64(q.mdsSize),
			func(o *MDSOracle) { _, _ = o.HasDominatingSetOfSize(wg, 1) },
			func(o *MDSOracle) (bool, error) { return o.HasDominatingSetOfSize(g, q.mdsSize) })
		gammaW, err := BruteMinDominatingSetWeight(g)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, "MDSOracle.HasDominatingSetOfWeight", gammaW <= q.mdsCap,
			func(o *MDSOracle) { _, _ = o.HasDominatingSetOfWeight(wg, 1) },
			func(o *MDSOracle) (bool, error) { return o.HasDominatingSetOfWeight(g, q.mdsCap) })

		alphaW, err := BruteMaxWeightIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, "MaxISOracle.MaxWeightIndependentSet", alphaW,
			func(o *MaxISOracle) { _, _, _ = o.MaxWeightIndependentSet(wg) },
			func(o *MaxISOracle) (int64, error) {
				w, set, err := o.MaxWeightIndependentSet(g)
				if err == nil && !IsIndependentSet(g, set) {
					t.Fatalf("MaxISOracle returned dependent set %v", set)
				}
				return w, err
			})

		best, err := BruteMaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int64{best - 1, best, best + 1} {
			agree(t, "MaxCutOracle.HasCutOfWeight", best >= target,
				func(o *MaxCutOracle) { _, _ = o.HasCutOfWeight(wg, 1) },
				func(o *MaxCutOracle) (bool, error) { return o.HasCutOfWeight(g, target) })
		}

		steinerEdges, err := BruteSteinerTree(unit, q.terms)
		if err != nil && !strings.Contains(err.Error(), "not connected") {
			t.Fatal(err)
		}
		agree(t, "SteinerOracle.HasSteinerTreeWithEdges", err == nil && steinerEdges <= int64(q.maxEdges),
			func(o *SteinerOracle) { _, _ = o.HasSteinerTreeWithEdges(wg, warmTerms, q.warmN) },
			func(o *SteinerOracle) (bool, error) { return o.HasSteinerTreeWithEdges(g, q.terms, q.maxEdges) })

		arcWeight, err := DirectedSteinerEnum(d, q.root, q.dirTerms)
		if err != nil && !strings.Contains(err.Error(), "not reachable") {
			t.Fatal(err)
		}
		agree(t, "DirSteinerOracle.HasDirectedSteinerWithin", err == nil && arcWeight <= q.budget,
			func(o *DirSteinerOracle) { _, _ = o.HasDirectedSteinerWithin(wd, 0, warmTerms, 2) },
			func(o *DirSteinerOracle) (bool, error) {
				return o.HasDirectedSteinerWithin(d, q.root, q.dirTerms, q.budget)
			})
	})
}
