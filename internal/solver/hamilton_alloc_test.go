package solver_test

import (
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/solver"
)

// TestDirectedHamiltonianPathFromAllocs pins the word search's allocation
// profile on a Theorem 2.2 instance (k=2, n=42): the search state lives on
// the stack, so the returned path is the call's only allocation.
func TestDirectedHamiltonianPathFromAllocs(t *testing.T) {
	fam, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	ones := comm.OnesBits(fam.K())
	d, err := fam.Build(ones, ones) // x and y intersect: a yes-instance
	if err != nil {
		t.Fatal(err)
	}
	path, found, err := solver.DirectedHamiltonianPathFrom(d, fam.Start(), fam.End())
	if err != nil || !found || !solver.IsDirectedHamiltonianPath(d, path) {
		t.Fatalf("yes-instance: found=%v err=%v path=%v", found, err, path)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := solver.DirectedHamiltonianPathFrom(d, fam.Start(), fam.End()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("DirectedHamiltonianPathFrom allocates %.1f objects/call, want exactly 1 (the path)", allocs)
	}
}
