package congest_test

import (
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
)

// TestDirectedRunAllocs pins what an arena-backed directed run allocates:
// the outputs slice and the Result. The five slices of each vertex's
// Local view (links, out-arcs with weights, in-arcs with weights) come
// from the arena's flat buffers; the in-arcs come from the sorted link
// window, so building the view needs no sort and no scratch. The
// instance is the hamlb k=2 base digraph that the hamlb/collect certify
// sweep runs on.
func TestDirectedRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	fam, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fam.BuildBase()
	if err != nil {
		t.Fatal(err)
	}
	node := &congest.FuncNode{RoundFunc: func(int, []congest.Incoming) ([]congest.Message, bool) { return nil, true }}
	factory := func(congest.Local) congest.Node { return node }
	arena := &congest.Arena{}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := congest.Run(d, factory, congest.Options{Arena: arena}); err != nil {
			t.Fatal(err)
		}
	})
	if bound := 2.0; allocs > bound {
		t.Errorf("directed run allocated %v objects, want at most %v (the outputs and the Result) for n=%d", allocs, bound, d.N())
	}
}
