package hamlb

import (
	"fmt"

	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

var (
	_ lbfamily.DeltaFamilyOf[*graph.Digraph] = (*Family)(nil)
	_ lbfamily.OracleFamily[*graph.Digraph]  = (*Family)(nil)
)

// BuildBase constructs the all-zeros instance G_{0,0}, which is exactly
// the fixed Figure 2 skeleton: no input bit set means no input arc.
func (f *Family) BuildBase() (*graph.Digraph, error) { return f.BuildFixed() }

// ApplyBit toggles the single arc input bit (player, (i,j)) controls in
// Section 2.2: x_{(i,j)} attaches a₁^i -> a₂^j and y_{(i,j)} attaches
// b₁^i -> b₂^j; the arc is present iff the bit is 1.
func (f *Family) ApplyBit(d *graph.Digraph, player, bit int, val bool) error {
	if bit < 0 || bit >= f.K() {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, f.K())
	}
	i, j := bit/f.k, bit%f.k
	u, v := f.A1(i), f.A2(j)
	if player == lbfamily.PlayerY {
		u, v = f.B1(i), f.B2(j)
	}
	added, err := d.ToggleArc(u, v, 1)
	if err != nil {
		return err
	}
	if added != val {
		return fmt.Errorf("input arc (%d,%d) out of sync with bit %d", u, v, bit)
	}
	return nil
}

// NewPredicateOracle returns a per-worker arena-backed evaluator of
// the Theorem 2.2 predicate (directed Hamiltonian path, necessarily from
// start to end since start has no in-arcs and end no out-arcs).
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle[*graph.Digraph] {
	return &pathOracle{start: f.Start(), end: f.End()}
}

type pathOracle struct {
	o          solver.HamiltonOracle
	start, end int
}

func (p *pathOracle) Eval(d *graph.Digraph) (bool, error) {
	return p.o.HasDirectedHamiltonianPathFrom(d, p.start, p.end)
}
