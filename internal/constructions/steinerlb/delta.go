package steinerlb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

var _ lbfamily.DeltaFamilyOf[*graph.Graph] = (*Family)(nil)

// BuildBase constructs the all-zeros instance G'_{0,0}: the Theorem 2.6
// transformation applied to the MDS skeleton.
func (f *Family) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit toggles the two derived copies of the MDS input edge that bit
// (player, (i,j)) controls. The inner edge {u, v} appears in the derived
// graph as the "original edges" {ũ, v} and {ṽ, u} (the edge itself is not
// copied); both are present iff the bit is 1. The tilde cliques and
// identity edges are input-independent, so this is the whole delta.
func (f *Family) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	k := f.MDS.RowSize()
	if bit < 0 || bit >= f.K() {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, f.K())
	}
	i, j := bit/k, bit%k
	u, v := f.MDS.Row(mdslb.SetA1, i), f.MDS.Row(mdslb.SetA2, j)
	if player == lbfamily.PlayerY {
		u, v = f.MDS.Row(mdslb.SetB1, i), f.MDS.Row(mdslb.SetB2, j)
	}
	for _, e := range [2][2]int{{f.Tilde(u), v}, {f.Tilde(v), u}} {
		added, err := g.ToggleEdge(e[0], e[1], 1)
		if err != nil {
			return err
		}
		if added != val {
			return fmt.Errorf("derived input edge {%d,%d} out of sync with bit %d", e[0], e[1], bit)
		}
	}
	return nil
}
