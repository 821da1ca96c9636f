package mvclb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

var (
	_ lbfamily.DeltaFamilyOf[*graph.Graph] = (*Family)(nil)
	_ lbfamily.OracleFamily[*graph.Graph]  = (*Family)(nil)
)

// BuildBase constructs the all-zeros instance G_{0,0}: the fixed skeleton
// plus every complement input edge (a zero bit means the edge is present).
func (f *Family) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit toggles the complement edge input bit (player, (i,j)) controls:
// {a₁^i, a₂^j} (resp. {b₁^i, b₂^j}) is present iff the bit is 0.
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
	if added != !val {
		return fmt.Errorf("complement edge {%d,%d} out of sync with bit %d", u, v, bit)
	}
	return nil
}

// NewPredicateOracle returns a per-worker arena-backed evaluator of the
// predicate τ(G) <= M, i.e. α(G) >= Z.
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle[*graph.Graph] {
	return &predicateOracle{target: f.CoverTarget()}
}

type predicateOracle struct {
	o      solver.MaxISOracle
	target int
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	alpha, _, err := p.o.MaxIndependentSetSize(g)
	if err != nil {
		return false, err
	}
	return g.N()-alpha <= p.target, nil
}
