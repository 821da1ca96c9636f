package algorithms

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// componentsRoot is the reference root rule: reconstruct the records and
// run Components; a vertex is a root when no smaller id shares its
// component. A record the reconstruction rejects makes vertex 0 the only
// root.
func componentsRoot(n, id int, records []record, directed bool) bool {
	var comp []int
	if directed {
		d := graph.NewDigraph(n)
		for _, r := range records {
			if d.AddWeightedArc(int(r.key)/n, int(r.key)%n, r.w) != nil {
				return id == 0
			}
		}
		comp, _ = d.Underlying().Components()
	} else {
		g := graph.New(n)
		for _, r := range records {
			if g.AddWeightedEdge(int(r.key)/n, int(r.key)%n, r.w) != nil {
				return id == 0
			}
		}
		comp, _ = g.Components()
	}
	for v := 0; v < id; v++ {
		if comp[v] == comp[id] {
			return false
		}
	}
	return true
}

// captured is one vertex's record store at the end of a run, with the
// number of records it seeded at wakeup (the first ones it holds).
type captured struct {
	store  *recordStore
	seeded int
}

// checkElection compares the election against componentsRoot on every
// prefix of every vertex's final records (each prefix is a record set
// some vertex could hold mid-run), and checks that the run's root flags
// are the full-record elections. A prefix holding the vertex's seeded
// records gets its real neighbor list, so the smaller-neighbor fast path
// is checked too; shorter prefixes run the union-find alone.
func checkElection(t *testing.T, name string, stores []captured, outputs []interface{}, directed bool) {
	t.Helper()
	for v, c := range stores {
		s := c.store
		for k := 0; k <= len(s.records); k++ {
			prefix := recordStore{id: v, n: s.n, full: true, records: s.records[:k]}
			if k >= c.seeded {
				prefix.nbrs = s.nbrs
			}
			if got, want := prefix.elect(), componentsRoot(s.n, v, s.records[:k], directed); got != want {
				t.Fatalf("%s: vertex %d, first %d records: elected root=%v, Components root=%v", name, v, k, got, want)
			}
		}
		if got, want := outputs[v].(collectOutput).root, componentsRoot(s.n, v, s.records, directed); got != want {
			t.Errorf("%s: vertex %d reported root=%v, Components rule says %v", name, v, got, want)
		}
	}
}

func runCapturingCollect[G Kind](t *testing.T, g G) ([]captured, *congest.Result) {
	t.Helper()
	factory, budget, err := CollectFactory(g, 0, CollectSpec[G]{Eval: Stateless(func(c G) (int64, error) { return int64(c.N()), nil })})
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]captured, g.N())
	res, err := congest.Run(g, func(l congest.Local) congest.Node {
		node := factory(l).(*collectNode[G])
		stores[l.ID] = captured{store: &node.recordStore, seeded: len(node.records)}
		return node
	}, congest.Options{MaxRounds: budget + 4})
	if err != nil {
		t.Fatal(err)
	}
	if total, err := CollectTotal(res); err != nil || total != int64(g.N()) {
		t.Fatalf("component sizes sum to %d (err %v), want %d", total, err, g.N())
	}
	return stores, res
}

func TestUnionFindElectsComponentsRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	zeros, err := fam.Build(comm.NewBits(fam.K()), comm.NewBits(fam.K()))
	if err != nil {
		t.Fatal(err)
	}
	if zeros.IsConnected() {
		t.Fatal("the mdslb all-zeros instance is expected to be disconnected")
	}
	isolated := graph.New(5)
	isolated.MustAddEdge(3, 4)
	// Vertex 1's only neighbor is larger, yet 0 shares its component:
	// the fast path passes 1 to the union-find, which must not elect it.
	path021 := graph.New(3)
	path021.MustAddEdge(0, 2)
	path021.MustAddEdge(2, 1)
	cases := map[string]*graph.Graph{"mdslb-zeros": zeros, "isolated": isolated, "edgeless": graph.New(4), "path-0-2-1": path021}
	for i := 0; i < 12; i++ {
		// p from sparse (many components, isolated vertices) to dense.
		cases["gnp-"+string(rune('a'+i))] = graph.Gnp(6+i, 0.05+0.04*float64(i), rng)
	}
	for name, g := range cases {
		stores, res := runCapturingCollect(t, g)
		checkElection(t, name, stores, res.Outputs, false)
	}

	digraphs := map[string]*graph.Digraph{}
	for i := 0; i < 12; i++ {
		digraphs["digraph-"+string(rune('a'+i))] = graph.RandomDigraph(6+i, 0.03+0.03*float64(i), rng)
	}
	// The 0-2-1 path on a digraph, with the arcs along and against it.
	for _, arcs := range [][2][2]int{{{0, 2}, {2, 1}}, {{2, 0}, {1, 2}}} {
		d := graph.NewDigraph(3)
		for _, a := range arcs {
			d.MustAddArc(a[0], a[1])
		}
		digraphs[fmt.Sprintf("digraph-path-0-2-1-%v", arcs)] = d
	}
	for name, d := range digraphs {
		stores, res := runCapturingCollect(t, d)
		checkElection(t, name, stores, res.Outputs, true)
	}
}

// runInjected runs the collect program on g with inject applied to
// vertex at's record store after wakeup, and returns CollectTotal's error.
func runInjected[G Kind](t *testing.T, g G, at int, inject func(s *recordStore)) error {
	t.Helper()
	factory, budget, err := CollectFactory(g, 0, CollectSpec[G]{Eval: Stateless(func(G) (int64, error) { return 1, nil })})
	if err != nil {
		t.Fatal(err)
	}
	res, err := congest.Run(g, func(l congest.Local) congest.Node {
		node := factory(l).(*collectNode[G])
		if l.ID == at {
			inject(&node.recordStore)
		}
		return node
	}, congest.Options{MaxRounds: budget + 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = CollectTotal(res)
	return err
}

func TestMalformedRecordsReachVertexZero(t *testing.T) {
	const n = 6
	malformed := map[string]func(s *recordStore){
		"self-loop":    func(s *recordStore) { s.learn(s.id, s.id, 1) },
		"out-of-range": func(s *recordStore) { s.learn(n, 0, 1) }, // key n^2
	}
	for name, inject := range malformed {
		// Injected at vertex 0 itself, and at the far end of a path, from
		// where the relay carries it to vertex 0.
		for _, at := range []int{0, n - 1} {
			if err := runInjected(t, graph.Path(n), at, inject); err == nil || !strings.Contains(err.Error(), "root 0: reconstructing collected graph") {
				t.Errorf("%s at vertex %d: CollectTotal err = %v, want vertex 0's reconstruction error", name, at, err)
			}
			d := graph.NewDigraph(n)
			for v := 0; v+1 < n; v++ {
				d.MustAddArc(v+1, v) // arcs against the relay direction
			}
			if err := runInjected(t, d, at, inject); err == nil || !strings.Contains(err.Error(), "root 0: reconstructing collected digraph") {
				t.Errorf("%s at vertex %d: CollectTotal err = %v on the digraph, want vertex 0's reconstruction error", name, at, err)
			}
		}
	}
}

// collectPairAllocs runs one collect pair on g through a reused arena and
// returns its allocations per run.
func collectPairAllocs[G Kind](t *testing.T, g G, spec CollectSpec[G]) float64 {
	t.Helper()
	factory, _, err := CollectFactory(g, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	arena := &congest.Arena{}
	return testing.AllocsPerRun(20, func() {
		res, err := congest.Run(g, factory, congest.Options{Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CollectTotal(res); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCollectPairAllocs pins the allocations of one certified pair
// (x=1000, y=0100) of mds/collect and of hamlb/collect (n=42), the
// program's two graph kinds, each with its root evaluator in a RootEval
// as the reduction pairings wire it.
func TestCollectPairAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	x, y := comm.NewBits(4), comm.NewBits(4)
	x.Set(0, true)
	y.Set(1, true)

	mds, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mds.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	gamma := &RootEval[*graph.Graph]{New: func() func(*graph.Graph) (int64, error) {
		var o solver.MDSOracle
		return func(c *graph.Graph) (int64, error) {
			for s := 0; ; s++ {
				if ok, err := o.HasDominatingSetOfSize(c, s); ok || err != nil {
					return int64(s), err
				}
			}
		}
	}}
	// ~2x the 3 measured with go1.24 on linux/amd64: the Result, its
	// outputs slice and the root's output. Node state, Local views, the
	// reconstruction graph and the root's oracle all come back from the
	// arena; one allocation per vertex would add 20, and a fresh node
	// state per pair cost 368.
	if allocs, bound := collectPairAllocs(t, g, CollectSpec[*graph.Graph]{Eval: gamma}), 6.0; allocs > bound {
		t.Errorf("one mds/collect pair allocates %.0f times, want <= %.0f", allocs, bound)
	}

	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ham.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	n, start, end := ham.N(), ham.Start(), ham.End()
	path := &RootEval[*graph.Digraph]{New: func() func(*graph.Digraph) (int64, error) {
		var o solver.HamiltonOracle
		return func(c *graph.Digraph) (int64, error) {
			if c.N() != n {
				return 0, nil
			}
			found, err := o.HasDirectedHamiltonianPathFrom(c, start, end)
			if err != nil || !found {
				return 0, err
			}
			return 1, nil
		}
	}}
	// ~2x the 3 measured with go1.24 on linux/amd64, as above. One
	// allocation per vertex would add 42; a fresh node state per pair
	// cost 848.
	if allocs, bound := collectPairAllocs(t, d, CollectSpec[*graph.Digraph]{Eval: path}), 6.0; allocs > bound {
		t.Errorf("one hamlb/collect pair allocates %.0f times, want <= %.0f", allocs, bound)
	}
}
