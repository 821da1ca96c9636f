// Package mvclb implements a family of lower bound graphs for minimum
// vertex cover / maximum independent set in the style of [10]
// (Censor-Hillel, Khoury, Paz), which both Section 3.2 and Section 4.1 of
// the paper build on: inputs of size K = k², Θ(k) vertices, Θ(log k) cut,
// and a vertex cover of size M = 4(k-1) + 4·log(k) exists iff
// DISJ(x, y) = FALSE (equivalently α(G) = 4 + 4·log(k) iff non-disjoint).
//
// Construction: four cliques A1, A2, B1, B2 of k row vertices; per set a
// bit gadget of log(k) edge-pairs {f^h, t^h}; row vertex s^i connects to
// the complement of its binary representation (t^h where bit h of i is 0,
// f^h where it is 1); crossing gadget edges f^h_{Aℓ}-t^h_{Bℓ} and
// t^h_{Aℓ}-f^h_{Bℓ} force both sides to leave the same index uncovered;
// and the complement input edges {a₁^i, a₂^j} for x_{(i,j)} = 0 (resp. y
// for B) make an M-cover possible exactly when some (i, j) has
// x_{(i,j)} = y_{(i,j)} = 1.
package mvclb

import (
	"fmt"
	"math/bits"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// Set identifies one of the four cliques.
type Set int

// The four cliques.
const (
	SetA1 Set = iota
	SetA2
	SetB1
	SetB2
)

// Family is the MVC/MaxIS family.
type Family struct {
	k    int
	logK int
}

var _ lbfamily.Family[*graph.Graph] = (*Family)(nil)

// New returns the family for row size k (a power of two, >= 2).
func New(k int) (*Family, error) {
	if k < 2 || bits.OnesCount(uint(k)) != 1 {
		return nil, fmt.Errorf("k must be a power of two >= 2, got %d", k)
	}
	return &Family{k: k, logK: bits.TrailingZeros(uint(k))}, nil
}

// Name returns "mvc".
func (f *Family) Name() string { return "mvc" }

// K returns k².
func (f *Family) K() int { return f.k * f.k }

// RowSize returns k.
func (f *Family) RowSize() int { return f.k }

// LogK returns log2(k).
func (f *Family) LogK() int { return f.logK }

// N returns 4k + 8·log(k).
func (f *Family) N() int { return 4*f.k + 8*f.logK }

// CoverTarget returns M = 4(k-1) + 4·log(k).
func (f *Family) CoverTarget() int { return 4*(f.k-1) + 4*f.logK }

// AlphaTarget returns Z = N - M = 4 + 4·log(k), the independent set size
// achieved exactly when the inputs intersect.
func (f *Family) AlphaTarget() int { return f.N() - f.CoverTarget() }

// Row returns the vertex id of s^i.
func (f *Family) Row(s Set, i int) int { return int(s)*f.k + i }

// FVertex returns f^h_S.
func (f *Family) FVertex(s Set, h int) int { return 4*f.k + int(s)*2*f.logK + h }

// TVertex returns t^h_S.
func (f *Family) TVertex(s Set, h int) int { return 4*f.k + int(s)*2*f.logK + f.logK + h }

// Func returns ¬DISJ.
func (f *Family) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

// AliceSide marks A1, A2 and their gadgets.
func (f *Family) AliceSide() []bool {
	side := make([]bool, f.N())
	for i := 0; i < f.k; i++ {
		side[f.Row(SetA1, i)] = true
		side[f.Row(SetA2, i)] = true
	}
	for h := 0; h < f.logK; h++ {
		for _, s := range []Set{SetA1, SetA2} {
			side[f.FVertex(s, h)] = true
			side[f.TVertex(s, h)] = true
		}
	}
	return side
}

// BuildFixed constructs the input-independent part.
func (f *Family) BuildFixed() *graph.Graph {
	g := graph.New(f.N())
	// Cliques.
	for _, s := range []Set{SetA1, SetA2, SetB1, SetB2} {
		for i := 0; i < f.k; i++ {
			for j := i + 1; j < f.k; j++ {
				g.MustAddEdge(f.Row(s, i), f.Row(s, j))
			}
		}
		// Gadget pairs and row attachments.
		for h := 0; h < f.logK; h++ {
			g.MustAddEdge(f.FVertex(s, h), f.TVertex(s, h))
		}
		for i := 0; i < f.k; i++ {
			for h := 0; h < f.logK; h++ {
				// Complement representation: not covering s^i forces the
				// cover to take exactly bin-bar(i) in the gadget.
				if i>>uint(h)&1 == 1 {
					g.MustAddEdge(f.Row(s, i), f.FVertex(s, h))
				} else {
					g.MustAddEdge(f.Row(s, i), f.TVertex(s, h))
				}
			}
		}
	}
	// Crossing gadget edges.
	pairs := [][2]Set{{SetA1, SetB1}, {SetA2, SetB2}}
	for _, p := range pairs {
		for h := 0; h < f.logK; h++ {
			g.MustAddEdge(f.FVertex(p[0], h), f.TVertex(p[1], h))
			g.MustAddEdge(f.TVertex(p[0], h), f.FVertex(p[1], h))
		}
	}
	return g
}

// Build adds the complement input edges: {a₁^i, a₂^j} iff x_{(i,j)} = 0
// and {b₁^i, b₂^j} iff y_{(i,j)} = 0.
func (f *Family) Build(x, y comm.Bits) (*graph.Graph, error) {
	if x.Len() != f.K() || y.Len() != f.K() {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", f.K(), x.Len(), y.Len())
	}
	g := f.BuildFixed()
	for i := 0; i < f.k; i++ {
		for j := 0; j < f.k; j++ {
			idx := comm.PairIndex(i, j, f.k)
			if !x.Get(idx) {
				g.MustAddEdge(f.Row(SetA1, i), f.Row(SetA2, j))
			}
			if !y.Get(idx) {
				g.MustAddEdge(f.Row(SetB1, i), f.Row(SetB2, j))
			}
		}
	}
	return g, nil
}

// Predicate decides exactly whether τ(G) <= M, i.e. α(G) >= Z.
func (f *Family) Predicate(g *graph.Graph) (bool, error) {
	alpha, _, err := solver.MaxIndependentSetSize(g)
	if err != nil {
		return false, err
	}
	return g.N()-alpha <= f.CoverTarget(), nil
}

// WitnessIndependentSet returns the size-Z independent set the analysis
// exhibits when x and y intersect at (i, j): the four rows a₁^i, a₂^j,
// b₁^i, b₂^j plus bin(i) in the A1/B1 gadgets and bin(j) in A2/B2.
func (f *Family) WitnessIndependentSet(x, y comm.Bits) ([]int, error) {
	idx := x.FirstCommonOne(y)
	if idx < 0 {
		return nil, fmt.Errorf("inputs are disjoint; no witness exists")
	}
	i, j := idx/f.k, idx%f.k
	set := []int{
		f.Row(SetA1, i), f.Row(SetB1, i),
		f.Row(SetA2, j), f.Row(SetB2, j),
	}
	appendBin := func(s Set, val int) {
		for h := 0; h < f.logK; h++ {
			if val>>uint(h)&1 == 1 {
				set = append(set, f.TVertex(s, h))
			} else {
				set = append(set, f.FVertex(s, h))
			}
		}
	}
	appendBin(SetA1, i)
	appendBin(SetB1, i)
	appendBin(SetA2, j)
	appendBin(SetB2, j)
	return set, nil
}
