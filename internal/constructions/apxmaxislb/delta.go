package apxmaxislb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

var _ lbfamily.DeltaFamilyOf[*graph.Graph] = (*Family)(nil)

// BuildBase constructs the all-zeros instance G_{0,0}: the fixed code
// gadget plus every complement input edge (a zero bit means the edge is
// present).
func (f *Family) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit toggles the complement edge input bit (player, (i,i')) controls
// in Figure 4: {a₁^i, a₂^i'} (resp. {b₁^i, b₂^i'}) is present iff the bit
// is 0.
func (f *Family) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	if bit < 0 || bit >= f.K() {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, f.K())
	}
	i, i2 := bit/f.p.K, bit%f.p.K
	u, v := f.Row(SetA1, i), f.Row(SetA2, i2)
	if player == lbfamily.PlayerY {
		u, v = f.Row(SetB1, i), f.Row(SetB2, i2)
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
