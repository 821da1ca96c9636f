package kmdslb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

var (
	_ lbfamily.DeltaFamilyOf[*graph.Graph]   = (*TwoMDSFamily)(nil)
	_ lbfamily.DeltaFamilyOf[*graph.Graph]   = (*KMDSFamily)(nil)
	_ lbfamily.DeltaFamilyOf[*graph.Graph]   = (*NodeSteinerFamily)(nil)
	_ lbfamily.DeltaFamilyOf[*graph.Digraph] = (*DirSteinerFamily)(nil)
)

// The Section 4 constructions are "pure weight gadget" families: the edge
// set of every undirected instance is input-independent, and input bit i
// only selects the weight of S_i (Alice) or S̄_i (Bob) — 1 when the bit is
// 1, the prohibitive α otherwise. applyWeightBit is that delta, shared by
// the 2-MDS, k-MDS and node-Steiner variants, journaled through
// SetVertexWeight so the verifier's incremental hashes stay exact.
func applyWeightBit(f *TwoMDSFamily, g *graph.Graph, player, bit int, val bool) error {
	if bit < 0 || bit >= f.K() {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, f.K())
	}
	v := f.SVertex(bit)
	if player == lbfamily.PlayerY {
		v = f.SBarVertex(bit)
	}
	w := f.p.Alpha()
	if val {
		w = 1
	}
	return g.SetVertexWeight(v, w)
}

// BuildBase constructs the all-zeros instance G_{0,0}: every set vertex at
// the prohibitive weight α.
func (f *TwoMDSFamily) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit applies the weight change of one input bit (Figure 5).
func (f *TwoMDSFamily) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	return applyWeightBit(f, g, player, bit, val)
}

// BuildBase constructs the all-zeros subdivided instance.
func (f *KMDSFamily) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit applies the weight change of one input bit. Subdivision keeps
// the inner vertex ids, so the delta is the inner family's.
func (f *KMDSFamily) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	return applyWeightBit(f.Inner, g, player, bit, val)
}

// BuildBase constructs the all-zeros instance with the Steiner weight
// profile.
func (f *NodeSteinerFamily) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit applies the weight change of one input bit; the Steiner
// zero-weight profile only touches input-independent vertices.
func (f *NodeSteinerFamily) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	return applyWeightBit(f.Inner, g, player, bit, val)
}

// BuildBase constructs the all-zeros directed instance G_{0,0}: no input
// arc present.
func (f *DirSteinerFamily) BuildBase() (*graph.Digraph, error) {
	zero := comm.NewBits(f.K())
	return f.Build(zero, zero)
}

// ApplyBit toggles the Figure 6 arcs input bit i controls: x_i attaches
// the weight-0 arcs S_i -> a_j for every element j in S_i, and y_i the
// arcs S̄_i -> b_j for every j outside S_i.
func (f *DirSteinerFamily) ApplyBit(d *graph.Digraph, player, bit int, val bool) error {
	if bit < 0 || bit >= f.K() {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, f.K())
	}
	cl := f.Inner.p.Collection
	for j := 0; j < cl.L; j++ {
		var u, v int
		switch {
		case player == lbfamily.PlayerX && cl.Contains(bit, j):
			u, v = f.Inner.SVertex(bit), f.Inner.AVertex(j)
		case player == lbfamily.PlayerY && !cl.Contains(bit, j):
			u, v = f.Inner.SBarVertex(bit), f.Inner.BVertex(j)
		default:
			continue
		}
		added, err := d.ToggleArc(u, v, 0)
		if err != nil {
			return err
		}
		if added != val {
			return fmt.Errorf("input arc (%d,%d) out of sync with bit %d", u, v, bit)
		}
	}
	return nil
}
