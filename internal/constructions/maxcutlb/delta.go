package maxcutlb

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

// BuildBase constructs the all-zeros instance G_{0,0}: every complement
// edge present, every normalizing weight zero (weight-0 edges to N_A/N_B
// exist from the start, so ApplyBit only ever changes their weight).
func (f *Family) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit applies the Section 2.4 delta of input bit (player, (i,j)):
// the weight-1 complement edge {s₁^i, s₂^j} is present iff the bit is 0,
// and the two normalizing edges {s₁^i, N} and {s₂^j, N} absorb the unit —
// their weights count the one bits of row i and column j, keeping each
// selected row vertex's weight into the "other side" exactly k (Claim
// 2.10 / Lemma 2.4).
func (f *Family) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	if bit < 0 || bit >= f.K() {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, f.K())
	}
	i, j := bit/f.k, bit%f.k
	r1, r2, nrm := f.Row(SetA1, i), f.Row(SetA2, j), f.NA()
	if player == lbfamily.PlayerY {
		r1, r2, nrm = f.Row(SetB1, i), f.Row(SetB2, j), f.NB()
	}
	added, err := g.ToggleEdge(r1, r2, 1)
	if err != nil {
		return err
	}
	if added == val {
		return fmt.Errorf("complement edge {%d,%d} out of sync with bit %d", r1, r2, bit)
	}
	delta := int64(1)
	if !val {
		delta = -1
	}
	for _, rv := range [2]int{r1, r2} {
		w, ok := g.EdgeWeight(rv, nrm)
		if !ok {
			return fmt.Errorf("normalizing edge {%d,%d} missing", rv, nrm)
		}
		if err := g.SetEdgeWeight(rv, nrm, w+delta); err != nil {
			return err
		}
	}
	return nil
}

// NewPredicateOracle returns a per-worker arena-backed evaluator of the
// Theorem 2.8 predicate (cut of weight at least M), using the
// branch-and-bound decision oracle instead of the Gray-code sweep.
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle[*graph.Graph] {
	return &predicateOracle{target: f.Target()}
}

type predicateOracle struct {
	o      solver.MaxCutOracle
	target int64
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	return p.o.HasCutOfWeight(g, p.target)
}
