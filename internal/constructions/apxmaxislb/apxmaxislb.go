// Package apxmaxislb implements the Section 4.1 hardness-of-approximation
// constructions for maximum independent set, built on Reed-Solomon code
// gadgets (Figure 4):
//
//   - Family (Theorem 4.3): weighted MaxIS with gap 8ℓ+4t vs 7ℓ+4t, giving
//     a (7/8+ε)-approximation lower bound of Ω̃(n²) rounds.
//   - UnweightedFamily (Theorem 4.1): the batch version — every row vertex
//     becomes an independent batch of ℓ unit-weight copies.
//   - LinearFamily (Theorem 4.2): the single-batch variant with input
//     length K = k and gap 6ℓ+2t vs 5ℓ+2t ((5/6+ε), Ω̃(n) rounds).
//
// Each row vertex s^i is assigned the Reed-Solomon codeword g(i) of a code
// with parameters (ℓ+t, t, ℓ+1, q); s^i is adjacent to every code-gadget
// vertex except the ℓ+t matching its codeword, so any independent set
// containing s^i can only keep codeword-compatible gadget vertices. The
// distance ℓ+1 makes row vertices with different indices fight over at
// least ℓ gadget rows — the source of the gap.
package apxmaxislb

import (
	"fmt"
	"math/bits"

	"congesthard/internal/code"
	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// Set identifies one of the four row sets.
type Set int

// The four row sets.
const (
	SetA1 Set = iota
	SetA2
	SetB1
	SetB2
)

// Params are the construction parameters. The paper sets L = c·log²k and
// T = log k; the library takes both explicitly so verification can run at
// small scale, validating L >= T >= 1.
type Params struct {
	K int // rows per set (power of two)
	L int // ℓ, the row-vertex weight / batch size
	T int // t, the code dimension
}

// Family is the weighted (7/8+ε)-gap family of Theorem 4.3.
type Family struct {
	p    Params
	rs   *code.ReedSolomon
	q    int
	cols int // ℓ + t, code length
}

var _ lbfamily.Family[*graph.Graph] = (*Family)(nil)

// New validates parameters and constructs the Reed-Solomon code: length
// ℓ+t, dimension t, over F_q with q the smallest prime exceeding ℓ+t, with
// q^t >= k so the row-index encoding is injective.
func New(p Params) (*Family, error) {
	if p.K < 2 || bits.OnesCount(uint(p.K)) != 1 {
		return nil, fmt.Errorf("k must be a power of two >= 2, got %d", p.K)
	}
	if p.T < 1 || p.L < p.T {
		return nil, fmt.Errorf("need 1 <= t <= l, got t=%d l=%d", p.T, p.L)
	}
	q := code.NextPrime(int64(p.L + p.T + 1))
	field, err := code.NewField(q)
	if err != nil {
		return nil, err
	}
	rs, err := code.NewReedSolomon(field, p.L+p.T, p.T)
	if err != nil {
		return nil, err
	}
	// Injectivity of the index encoding: q^t >= k.
	capacity := int64(1)
	for i := 0; i < p.T && capacity < int64(p.K); i++ {
		capacity *= q
	}
	if capacity < int64(p.K) {
		return nil, fmt.Errorf("q^t = %d cannot encode %d rows", capacity, p.K)
	}
	return &Family{p: p, rs: rs, q: int(q), cols: p.L + p.T}, nil
}

// Name returns "apx-maxis".
func (f *Family) Name() string { return "apx-maxis" }

// K returns k².
func (f *Family) K() int { return f.p.K * f.p.K }

// Params returns the construction parameters.
func (f *Family) Params() Params { return f.p }

// Q returns the field size.
func (f *Family) Q() int { return f.q }

// N returns 4k + 4q(ℓ+t).
func (f *Family) N() int { return 4*f.p.K + 4*f.q*f.cols }

// YesWeight returns the maximum independent set weight 8ℓ+4t when the
// inputs intersect.
func (f *Family) YesWeight() int64 { return int64(8*f.p.L + 4*f.p.T) }

// NoWeight returns the maximum weight 7ℓ+4t when the inputs are disjoint.
func (f *Family) NoWeight() int64 { return int64(7*f.p.L + 4*f.p.T) }

// Row returns the vertex id of s^i.
func (f *Family) Row(s Set, i int) int { return int(s)*f.p.K + i }

// GadgetVertex returns the vertex α^S_j for field element alpha and code
// position j.
func (f *Family) GadgetVertex(s Set, alpha, j int) int {
	return 4*f.p.K + int(s)*f.q*f.cols + alpha*f.cols + j
}

// Codeword returns the Reed-Solomon codeword assigned to row index i.
func (f *Family) Codeword(i int) ([]int64, error) { return f.rs.EncodeIndex(int64(i)) }

// Func returns ¬DISJ.
func (f *Family) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

// AliceSide marks A1, A2 and their code gadgets.
func (f *Family) AliceSide() []bool {
	side := make([]bool, f.N())
	for i := 0; i < f.p.K; i++ {
		side[f.Row(SetA1, i)] = true
		side[f.Row(SetA2, i)] = true
	}
	for _, s := range []Set{SetA1, SetA2} {
		for alpha := 0; alpha < f.q; alpha++ {
			for j := 0; j < f.cols; j++ {
				side[f.GadgetVertex(s, alpha, j)] = true
			}
		}
	}
	return side
}

// BuildFixed constructs the input-independent part.
func (f *Family) BuildFixed() (*graph.Graph, error) {
	g := graph.New(f.N())
	// Weights: rows ℓ, gadget vertices 1.
	for _, s := range []Set{SetA1, SetA2, SetB1, SetB2} {
		for i := 0; i < f.p.K; i++ {
			if err := g.SetVertexWeight(f.Row(s, i), int64(f.p.L)); err != nil {
				return nil, err
			}
		}
	}
	// Row cliques.
	for _, s := range []Set{SetA1, SetA2, SetB1, SetB2} {
		for i := 0; i < f.p.K; i++ {
			for i2 := i + 1; i2 < f.p.K; i2++ {
				g.MustAddEdge(f.Row(s, i), f.Row(s, i2))
			}
		}
		// Gadget row cliques: row(j, S) = {α^S_j}.
		for j := 0; j < f.cols; j++ {
			for a1 := 0; a1 < f.q; a1++ {
				for a2 := a1 + 1; a2 < f.q; a2++ {
					g.MustAddEdge(f.GadgetVertex(s, a1, j), f.GadgetVertex(s, a2, j))
				}
			}
		}
	}
	// Cross edges: complete bipartite minus perfect matching per (z, j).
	pairs := [][2]Set{{SetA1, SetB1}, {SetA2, SetB2}}
	for _, p := range pairs {
		for j := 0; j < f.cols; j++ {
			for a1 := 0; a1 < f.q; a1++ {
				for a2 := 0; a2 < f.q; a2++ {
					if a1 != a2 {
						g.MustAddEdge(f.GadgetVertex(p[0], a1, j), f.GadgetVertex(p[1], a2, j))
					}
				}
			}
		}
	}
	// Row-to-gadget edges: s^i is adjacent to everything except its
	// codeword's vertices.
	for _, s := range []Set{SetA1, SetA2, SetB1, SetB2} {
		for i := 0; i < f.p.K; i++ {
			cw, err := f.Codeword(i)
			if err != nil {
				return nil, err
			}
			for alpha := 0; alpha < f.q; alpha++ {
				for j := 0; j < f.cols; j++ {
					if cw[j] != int64(alpha) {
						g.MustAddEdge(f.Row(s, i), f.GadgetVertex(s, alpha, j))
					}
				}
			}
		}
	}
	return g, nil
}

// Build adds the complement input edges: {a₁^i, a₂^i'} iff x_{(i,i')} = 0,
// and likewise for y on the B side.
func (f *Family) Build(x, y comm.Bits) (*graph.Graph, error) {
	if x.Len() != f.K() || y.Len() != f.K() {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", f.K(), x.Len(), y.Len())
	}
	g, err := f.BuildFixed()
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.p.K; i++ {
		for i2 := 0; i2 < f.p.K; i2++ {
			idx := comm.PairIndex(i, i2, f.p.K)
			if !x.Get(idx) {
				g.MustAddEdge(f.Row(SetA1, i), f.Row(SetA2, i2))
			}
			if !y.Get(idx) {
				g.MustAddEdge(f.Row(SetB1, i), f.Row(SetB2, i2))
			}
		}
	}
	return g, nil
}

// Predicate decides whether the maximum weight independent set reaches the
// YES weight 8ℓ+4t.
func (f *Family) Predicate(g *graph.Graph) (bool, error) {
	w, _, err := solver.MaxWeightIndependentSet(g)
	if err != nil {
		return false, err
	}
	return w >= f.YesWeight(), nil
}

// WitnessIndependentSet constructs the weight-(8ℓ+4t) independent set of
// Lemma 4.1's first direction: the four rows indexed by the common one
// (i, i') plus their codeword gadget vertices.
func (f *Family) WitnessIndependentSet(x, y comm.Bits) ([]int, error) {
	idx := x.FirstCommonOne(y)
	if idx < 0 {
		return nil, fmt.Errorf("inputs are disjoint; no witness exists")
	}
	i, i2 := idx/f.p.K, idx%f.p.K
	set := []int{
		f.Row(SetA1, i), f.Row(SetB1, i),
		f.Row(SetA2, i2), f.Row(SetB2, i2),
	}
	appendCode := func(s Set, val int) error {
		cw, err := f.Codeword(val)
		if err != nil {
			return err
		}
		for j := 0; j < f.cols; j++ {
			set = append(set, f.GadgetVertex(s, int(cw[j]), j))
		}
		return nil
	}
	// Fixed iteration order (not a map): the witness set's element order
	// is caller-visible, so it must not depend on map iteration.
	for _, sv := range [4]struct {
		s   Set
		val int
	}{{SetA1, i}, {SetB1, i}, {SetA2, i2}, {SetB2, i2}} {
		if err := appendCode(sv.s, sv.val); err != nil {
			return nil, err
		}
	}
	return set, nil
}
