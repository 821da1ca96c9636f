// Package hamlb implements the Section 2.2 lower-bound constructions for
// Hamiltonian path and cycle (Figure 2) and their corollaries:
//
//   - Family: the directed Hamiltonian path family of Theorem 2.2. The
//     graph routes a path through 2*log(k) "boxes"; each box C_c holds, for
//     q in {t, f} and d in [k], a launch vertex ℓ, a skip vertex σ, a burn
//     vertex β, and a *wheel* slot which is an alias of a row vertex. The
//     traversal's per-box choice of q encodes the binary representation of
//     the indices (i, j), and a Hamiltonian path exists iff the input
//     strings intersect (Claims 2.1-2.5).
//   - CycleFamily: the directed Hamiltonian cycle family of Theorem 2.3
//     (Claim 2.6), obtained by adding a middle vertex closing end -> start.
//   - Undirected variants via the split reduction (Lemma 2.2) and the
//     cycle-to-path reduction (Lemma 2.3).
//   - The 2-ECSS equivalence of Claim 2.7 (Theorem 2.5).
package hamlb

import (
	"fmt"
	"math/bits"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// Q is the truth-side of a box lane: QT for "true" (bit = 1), QF for
// "false" (bit = 0).
type Q int

// Lane identifiers.
const (
	QT Q = iota
	QF
)

// Family is the directed Hamiltonian path family (Theorem 2.2).
type Family struct {
	k    int
	logK int
}

var _ lbfamily.Family[*graph.Digraph] = (*Family)(nil)

// New returns the family for row size k (a power of two, >= 2). Input
// length is K = k².
func New(k int) (*Family, error) {
	if k < 2 || bits.OnesCount(uint(k)) != 1 {
		return nil, fmt.Errorf("k must be a power of two >= 2, got %d", k)
	}
	return &Family{k: k, logK: bits.TrailingZeros(uint(k))}, nil
}

// Name returns "hampath".
func (f *Family) Name() string { return "hampath" }

// K returns k².
func (f *Family) K() int { return f.k * f.k }

// RowSize returns k.
func (f *Family) RowSize() int { return f.k }

// Boxes returns the number of boxes, 2*log(k).
func (f *Family) Boxes() int { return 2 * f.logK }

// Fixed special vertices.
const (
	vStart = iota
	vEnd
	vS11
	vS21
	vS12
	vS22
	numSpecials
)

// Start returns the path's forced first vertex.
func (f *Family) Start() int { return vStart }

// End returns the path's forced last vertex.
func (f *Family) End() int { return vEnd }

// A1 returns the vertex id of a₁^i; similarly A2, B1, B2.
func (f *Family) A1(i int) int { return numSpecials + i }

// A2 returns the vertex id of a₂^i.
func (f *Family) A2(i int) int { return numSpecials + f.k + i }

// B1 returns the vertex id of b₁^i.
func (f *Family) B1(i int) int { return numSpecials + 2*f.k + i }

// B2 returns the vertex id of b₂^i.
func (f *Family) B2(i int) int { return numSpecials + 3*f.k + i }

func (f *Family) boxBase(c int) int {
	boxSize := 2 + 6*f.k
	return numSpecials + 4*f.k + c*boxSize
}

// G returns the box-entry vertex g_c.
func (f *Family) G(c int) int { return f.boxBase(c) }

// R returns the box-return vertex r_c.
func (f *Family) R(c int) int { return f.boxBase(c) + 1 }

// Launch returns ℓ^{c,d}_q.
func (f *Family) Launch(c int, q Q, d int) int { return f.boxBase(c) + 2 + (int(q)*f.k+d)*3 }

// Skip returns σ^{c,d}_q.
func (f *Family) Skip(c int, q Q, d int) int { return f.boxBase(c) + 2 + (int(q)*f.k+d)*3 + 1 }

// Burn returns β^{c,d}_q.
func (f *Family) Burn(c int, q Q, d int) int { return f.boxBase(c) + 2 + (int(q)*f.k+d)*3 + 2 }

// N returns the vertex count: 6 + 4k + 2*log(k)*(2 + 6k).
func (f *Family) N() int { return numSpecials + 4*f.k + f.Boxes()*(2+6*f.k) }

// Wheel resolves the wheel slot (c, q, d) to the row vertex it aliases:
// for boxes c < log(k) the A1/B1 rows (bit position c), for the rest the
// A2/B2 rows (bit position c - log(k)). Slots d < k/2 are A-side, the rest
// B-side; slot d is the d-th index (in increasing order) whose relevant bit
// equals 1 for q = QT and 0 for q = QF. An unresolvable slot (a
// malformed parameterization) is reported as an error, which Build
// propagates so verification surfaces it as a failure instead of a panic
// crashing the worker pool.
func (f *Family) Wheel(c int, q Q, d int) (int, error) {
	bit := c
	firstRows := true
	if c >= f.logK {
		bit = c - f.logK
		firstRows = false
	}
	aSide := d < f.k/2
	rank := d
	if !aSide {
		rank = d - f.k/2
	}
	wantBit := 1
	if q == QF {
		wantBit = 0
	}
	seen := 0
	for i := 0; i < f.k; i++ {
		if i>>uint(bit)&1 == wantBit {
			if seen == rank {
				switch {
				case firstRows && aSide:
					return f.A1(i), nil
				case firstRows && !aSide:
					return f.B1(i), nil
				case !firstRows && aSide:
					return f.A2(i), nil
				default:
					return f.B2(i), nil
				}
			}
			seen++
		}
	}
	return -1, fmt.Errorf("wheel slot (c=%d q=%d d=%d) unresolved", c, q, d)
}

// Func returns ¬DISJ.
func (f *Family) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

// AliceSide puts the A rows, start, s¹₁, s²₁, every g_c and the box lanes
// d < k/2 (which wheel into A rows) on Alice's side; everything else —
// B rows, r_c, the lanes d >= k/2, s¹₂, s²₂ and end — on Bob's. The
// resulting cut has O(log k) arcs.
func (f *Family) AliceSide() []bool {
	side := make([]bool, f.N())
	side[vStart] = true
	side[vS11] = true
	side[vS21] = true
	for i := 0; i < f.k; i++ {
		side[f.A1(i)] = true
		side[f.A2(i)] = true
	}
	for c := 0; c < f.Boxes(); c++ {
		side[f.G(c)] = true
		for _, q := range []Q{QT, QF} {
			for d := 0; d < f.k/2; d++ {
				side[f.Launch(c, q, d)] = true
				side[f.Skip(c, q, d)] = true
				side[f.Burn(c, q, d)] = true
			}
		}
	}
	return side
}

// BuildFixed constructs the input-independent digraph. It fails only on a
// malformed parameterization (an unresolvable wheel slot).
func (f *Family) BuildFixed() (*graph.Digraph, error) {
	d := graph.NewDigraph(f.N())
	k, boxes := f.k, f.Boxes()

	// Entry/exit spine.
	d.MustAddArc(vStart, f.G(0))
	for i := 0; i < k; i++ {
		d.MustAddArc(vS11, f.A1(i))
		d.MustAddArc(f.A2(i), vS21)
		d.MustAddArc(vS12, f.B1(i))
		d.MustAddArc(f.B2(i), vS22)
	}
	d.MustAddArc(vS21, vS12)
	d.MustAddArc(vS22, vEnd)

	for c := 0; c < boxes; c++ {
		for _, q := range []Q{QT, QF} {
			d.MustAddArc(f.G(c), f.Launch(c, q, 0))
			// r_c jumps into the far end of each lane.
			d.MustAddArc(f.R(c), f.Launch(c, q, k-1))
			for slot := 0; slot < k; slot++ {
				launch := f.Launch(c, q, slot)
				skip := f.Skip(c, q, slot)
				burn := f.Burn(c, q, slot)
				wheel, err := f.Wheel(c, q, slot)
				if err != nil {
					return nil, err
				}
				d.MustAddArc(launch, skip)
				d.MustAddArc(launch, wheel)
				d.MustAddArc(wheel, burn)
				d.MustAddArc(skip, burn)
				d.MustAddArc(burn, skip)
				// Forward continuation from skip and burn.
				var fwd int
				switch {
				case slot != k-1:
					fwd = f.Launch(c, q, slot+1)
				case c != boxes-1:
					fwd = f.G(c + 1)
				default:
					fwd = f.R(boxes - 1)
				}
				d.MustAddArc(skip, fwd)
				d.MustAddArc(burn, fwd)
				// Backward continuation from burn.
				var bwd int
				switch {
				case slot != 0:
					bwd = f.Launch(c, q, slot-1)
				case c != 0:
					bwd = f.R(c - 1)
				default:
					bwd = vS11
				}
				d.MustAddArc(burn, bwd)
			}
		}
	}
	return d, nil
}

// Build constructs G_{x,y}: input bit x_{(i,j)} adds the arc a₁^i -> a₂^j
// and y_{(i,j)} adds b₁^i -> b₂^j.
func (f *Family) Build(x, y comm.Bits) (*graph.Digraph, error) {
	if x.Len() != f.K() || y.Len() != f.K() {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", f.K(), x.Len(), y.Len())
	}
	d, err := f.BuildFixed()
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.k; i++ {
		for j := 0; j < f.k; j++ {
			idx := comm.PairIndex(i, j, f.k)
			if x.Get(idx) {
				d.MustAddArc(f.A1(i), f.A2(j))
			}
			if y.Get(idx) {
				d.MustAddArc(f.B1(i), f.B2(j))
			}
		}
	}
	return d, nil
}

// Predicate decides exactly whether the digraph has a directed Hamiltonian
// path. Because start has no in-arcs and end no out-arcs, any such path
// runs from start to end.
func (f *Family) Predicate(d *graph.Digraph) (bool, error) {
	_, found, err := solver.DirectedHamiltonianPathFrom(d, vStart, vEnd)
	return found, err
}
