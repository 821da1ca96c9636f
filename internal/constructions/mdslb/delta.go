package mdslb

import (
	"fmt"

	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

var (
	_ lbfamily.DeltaFamilyOf[*graph.Graph] = (*Family)(nil)
	_ lbfamily.OracleFamily[*graph.Graph]  = (*Family)(nil)
)

// BuildBase constructs the all-zeros instance G_{0,0}, which is exactly
// the fixed skeleton of Figure 1: no input bit set means no input edge.
func (f *Family) BuildBase() (*graph.Graph, error) { return f.BuildFixed(), nil }

// ApplyBit toggles the single edge input bit (player, (i,j)) controls in
// Section 2.1: x_{(i,j)} attaches {a₁^i, a₂^j} and y_{(i,j)} attaches
// {b₁^i, b₂^j}; the edge is present iff the bit is 1.
func (f *Family) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	if bit < 0 || bit >= f.K() {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, f.K())
	}
	i, j := bit/f.k, bit%f.k
	u, v := f.Row(SetA1, i), f.Row(SetA2, j)
	if player == lbfamily.PlayerY {
		u, v = f.Row(SetB1, i), f.Row(SetB2, j)
	}
	added, err := g.ToggleEdge(u, v, 1)
	if err != nil {
		return err
	}
	if added != val {
		return fmt.Errorf("input edge {%d,%d} out of sync with bit %d", u, v, bit)
	}
	return nil
}

// NewPredicateOracle returns a per-worker arena-backed evaluator of the
// Theorem 2.1 predicate (dominating set of size 4·log k + 2).
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle[*graph.Graph] {
	return &predicateOracle{target: f.TargetSize()}
}

type predicateOracle struct {
	o      solver.MDSOracle
	target int
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	return p.o.HasDominatingSetOfSize(g, p.target)
}
