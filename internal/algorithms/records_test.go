package algorithms

import (
	"math/rand"
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/dicongest"
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
			if d.AddWeightedArc(r.a, r.b, r.w) != nil {
				return id == 0
			}
		}
		comp, _ = d.Underlying().Components()
	} else {
		g := graph.New(n)
		for _, r := range records {
			if g.AddWeightedEdge(r.a, r.b, r.w) != nil {
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

// checkElection compares the union-find election against componentsRoot
// on every prefix of every vertex's final records (each prefix is a record
// set some vertex could hold mid-run), and checks that the run's root
// flags are the full-record elections.
func checkElection(t *testing.T, name string, stores []*recordStore, outputs []interface{}, directed bool) {
	t.Helper()
	for v, s := range stores {
		for k := 0; k <= len(s.records); k++ {
			prefix := recordStore{id: v, n: s.n, full: true, records: s.records[:k]}
			if got, want := prefix.elect(), componentsRoot(s.n, v, s.records[:k], directed); got != want {
				t.Fatalf("%s: vertex %d, first %d records: union-find root=%v, Components root=%v", name, v, k, got, want)
			}
		}
		if got, want := outputs[v].(collectOutput).root, componentsRoot(s.n, v, s.records, directed); got != want {
			t.Errorf("%s: vertex %d reported root=%v, Components rule says %v", name, v, got, want)
		}
	}
}

func runCapturingCollect(t *testing.T, g *graph.Graph) ([]*recordStore, *congest.Result) {
	t.Helper()
	factory, _, err := CollectFactory(g, 0, CollectSpec{Eval: func(c *graph.Graph) (int64, error) { return int64(c.N()), nil }})
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*recordStore, g.N())
	res, err := congest.Run(g, func(l congest.Local) congest.Node {
		node := factory(l).(*collectNode)
		stores[l.ID] = &node.recordStore
		return node
	}, congest.Options{})
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
	cases := map[string]*graph.Graph{"mdslb-zeros": zeros, "isolated": isolated, "edgeless": graph.New(4)}
	for i := 0; i < 12; i++ {
		// p from sparse (many components, isolated vertices) to dense.
		cases["gnp-"+string(rune('a'+i))] = graph.Gnp(6+i, 0.05+0.04*float64(i), rng)
	}
	for name, g := range cases {
		stores, res := runCapturingCollect(t, g)
		checkElection(t, name, stores, res.Outputs, false)
	}

	for i := 0; i < 12; i++ {
		d := graph.RandomDigraph(6+i, 0.03+0.03*float64(i), rng)
		factory, budget, err := DiCollectFactory(d, 0, DiCollectSpec{Eval: func(c *graph.Digraph) (int64, error) { return int64(c.N()), nil }})
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]*recordStore, d.N())
		res, err := dicongest.Run(d, func(l dicongest.Local) dicongest.Node {
			node := factory(l).(*diCollectNode)
			stores[l.ID] = &node.recordStore
			return node
		}, dicongest.Options{MaxRounds: budget + 4})
		if err != nil {
			t.Fatal(err)
		}
		if total, err := DiCollectTotal(res); err != nil || total != int64(d.N()) {
			t.Fatalf("digraph %d: weak component sizes sum to %d (err %v), want %d", i, total, err, d.N())
		}
		checkElection(t, "digraph-"+string(rune('a'+i)), stores, res.Outputs, true)
	}
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
			g := graph.Path(n)
			factory, _, err := CollectFactory(g, 0, CollectSpec{Eval: func(*graph.Graph) (int64, error) { return 1, nil }})
			if err != nil {
				t.Fatal(err)
			}
			res, err := congest.Run(g, func(l congest.Local) congest.Node {
				node := factory(l).(*collectNode)
				if l.ID == at {
					inject(&node.recordStore)
				}
				return node
			}, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CollectTotal(res); err == nil || !strings.Contains(err.Error(), "root 0: reconstructing collected graph") {
				t.Errorf("%s at vertex %d: CollectTotal err = %v, want vertex 0's reconstruction error", name, at, err)
			}

			d := graph.NewDigraph(n)
			for v := 0; v+1 < n; v++ {
				d.MustAddArc(v+1, v) // arcs against the relay direction
			}
			dfactory, budget, err := DiCollectFactory(d, 0, DiCollectSpec{Eval: func(*graph.Digraph) (int64, error) { return 1, nil }})
			if err != nil {
				t.Fatal(err)
			}
			dres, err := dicongest.Run(d, func(l dicongest.Local) dicongest.Node {
				node := dfactory(l).(*diCollectNode)
				if l.ID == at {
					inject(&node.recordStore)
				}
				return node
			}, dicongest.Options{MaxRounds: budget + 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DiCollectTotal(dres); err == nil || !strings.Contains(err.Error(), "root 0: reconstructing collected digraph") {
				t.Errorf("%s at vertex %d: DiCollectTotal err = %v, want vertex 0's reconstruction error", name, at, err)
			}
		}
	}
}

// TestCollectPairAllocs pins the allocations of one certified mds/collect
// pair (simulation plus decoding): at the budget only component roots
// build a graph, so non-roots must not pay for one.
func TestCollectPairAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	x, y := comm.NewBits(fam.K()), comm.NewBits(fam.K())
	x.Set(0, true)
	y.Set(1, true)
	g, err := fam.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	gamma := func(c *graph.Graph) (int64, error) {
		var o solver.MDSOracle
		for s := 0; ; s++ {
			if ok, err := o.HasDominatingSetOfSize(c, s); ok || err != nil {
				return int64(s), err
			}
		}
	}
	factory, _, err := CollectFactory(g, 0, CollectSpec{Eval: gamma})
	if err != nil {
		t.Fatal(err)
	}
	arena := &congest.Arena{}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := congest.Run(g, factory, congest.Options{Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CollectTotal(res); err != nil {
			t.Fatal(err)
		}
	})
	// ~2x the 368 measured with go1.24 on linux/amd64; building a graph
	// at every vertex cost 1781.
	const bound = 750
	if allocs > bound {
		t.Errorf("one mds/collect pair allocates %.0f times, want <= %d", allocs, bound)
	}
}
