// Package lbfamily implements the paper's central abstraction, the family
// of lower bound graphs (Definition 1.1), and makes Theorem 1.1 executable:
//
//   - A Family builds the graph G_{x,y} for any input pair and exposes the
//     fixed Alice/Bob vertex partition and the predicate P. Its type
//     parameter is the graph kind: *graph.Graph, or *graph.Digraph for the
//     directed constructions, which use the same framework (Theorems 2.2
//     and 4.7); every function here serves both kinds.
//   - Verify checks conditions 1-4 of Definition 1.1 exhaustively (all
//     2^K x 2^K input pairs) using an exact solver as the predicate oracle;
//     VerifySampled spot-checks larger parameters.
//   - Families whose instances are a fixed skeleton plus O(1) edges per
//     input bit can opt into DeltaFamilyOf: verification then walks the
//     input cube in Gray-code order and pays O(delta) per pair instead of
//     rebuilding, re-freezing and re-hashing every G_{x,y} from scratch.
//     A family with a reusable predicate evaluator opts into OracleFamily.
//   - ImpliedLowerBound evaluates the Theorem 1.1 round bound
//     Ω(CC(f) / (|E_cut| log n)) from the measured family parameters.
//   - SimulateTwoParty runs a CONGEST algorithm on G_{x,y} with the cut
//     metered, realizing the Alice-Bob simulation that proves Theorem 1.1.
package lbfamily

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// Family is a family of lower bound graphs {G_{x,y}} with respect to a
// two-party function f and a graph predicate P (Definition 1.1). G is the
// graph kind of its instances: *graph.Graph for the undirected families,
// *graph.Digraph for the directed ones (Hamiltonian path, directed
// Steiner tree).
type Family[G Instance] interface {
	// Name identifies the family, e.g. "mds".
	Name() string
	// K is the input length per player.
	K() int
	// Func is the function f the family reduces from. By Definition 1.1
	// condition 4, Predicate(Build(x,y)) must equal Func().Eval(x,y).
	Func() comm.Function
	// Build constructs G_{x,y}.
	Build(x, y comm.Bits) (G, error)
	// AliceSide marks V_A in the (input-independent) vertex set.
	AliceSide() []bool
	// Predicate decides P exactly (it may be expensive; it is the
	// verification oracle, not part of the construction).
	Predicate(g G) (bool, error)
}

// Input-bit owners for DeltaFamilyOf.ApplyBit.
const (
	// PlayerX marks a bit of Alice's input x.
	PlayerX = 0
	// PlayerY marks a bit of Bob's input y.
	PlayerY = 1
)

// DeltaFamilyOf is the incremental-construction extension of Family for
// "pure bit gadget" constructions: G_{x,y} is a fixed skeleton (BuildBase,
// the all-zeros instance G_{0,0}) plus a bounded set of edges (arcs, for
// a digraph) attached to each input bit. ApplyBit toggles exactly those,
// so the exhaustive verifier can walk the 2^(2K) input pairs in Gray-code
// order and update one instance in O(delta) per pair.
//
// Contract: ApplyBit(g, player, bit, val) transforms the instance of an
// input whose (player, bit) is !val into the instance where it is val,
// mutating edges and vertex weights only (no vertex additions) and only
// through ToggleEdge/SetEdgeWeight/SetVertexWeight (ToggleArc on a
// digraph), so the instance's mutation journals capture the delta. Before
// taking the delta path, Verify spot-checks the surface: BuildBase plus
// ApplyBit over every bit must reproduce Build's all-ones instance
// hash-for-hash, else it falls back to rebuilding every pair. Exhaustive
// pair-for-pair agreement of the two paths is asserted by the package's
// differential tests for the in-repo families.
type DeltaFamilyOf[G Instance] interface {
	Family[G]
	// BuildBase constructs the all-zeros instance G_{0,0}.
	BuildBase() (G, error)
	// ApplyBit applies the change of one input bit to val.
	ApplyBit(g G, player, bit int, val bool) error
}

// PredicateOracle is a reusable predicate evaluator (typically wrapping an
// arena-backed solver oracle) that a verification worker holds across many
// pairs so predicate evaluation stops paying per-call allocation.
type PredicateOracle[G Instance] interface {
	Eval(g G) (bool, error)
}

// OracleFamily is implemented by families whose predicate can be evaluated
// through a reusable per-worker oracle. NewPredicateOracle must return an
// oracle whose verdicts (and errors) match Predicate exactly.
type OracleFamily[G Instance] interface {
	Family[G]
	NewPredicateOracle() PredicateOracle[G]
}

// IsDigraph reports whether G is the directed kind, *graph.Digraph.
func IsDigraph[G Instance]() bool {
	_, ok := any(*new(G)).(*graph.Digraph)
	return ok
}

// AliceSide returns a family's Alice side, through AliceSideChecked when
// the family offers it (DerivedFamily, which must build an instance to
// learn its side), so a failed build is an error instead of a nil side.
func AliceSide(fam interface{ AliceSide() []bool }) ([]bool, error) {
	if checked, ok := fam.(interface{ AliceSideChecked() ([]bool, error) }); ok {
		return checked.AliceSideChecked()
	}
	return fam.AliceSide(), nil
}

// Stats are the measured parameters of a family that determine the
// Theorem 1.1 bound.
type Stats struct {
	N       int // vertices in G_{x,y} (fixed across inputs)
	M       int // edges (arcs) of the all-zero instance
	CutSize int // |E_cut|
	K       int // input bits per player
}

// MeasureStats builds the all-zeros instance and reports its parameters.
// The Alice side is read through AliceSide, so a side that fails to
// resolve, or whose length differs from the vertex count, is an error
// rather than a cut over the wrong partition.
func MeasureStats[G Instance](fam Family[G]) (Stats, error) {
	zero := comm.NewBits(fam.K())
	g, err := fam.Build(zero, zero)
	if err != nil {
		return Stats{}, err
	}
	side, err := AliceSide(fam)
	if err != nil {
		return Stats{}, fmt.Errorf("alice side: %w", err)
	}
	if len(side) != g.N() {
		return Stats{}, fmt.Errorf("AliceSide has %d entries for %d vertices", len(side), g.N())
	}
	return Stats{N: g.N(), M: g.M(), CutSize: cutSize(g, side), K: fam.K()}, nil
}

// cutSize counts the edges (arcs) of g crossing side.
func cutSize[G Instance](g G, side []bool) int {
	if d, ok := any(g).(*graph.Digraph); ok {
		return len(d.CutArcs(side))
	}
	return len(any(g).(*graph.Graph).CutEdges(side))
}

// ImpliedLowerBound evaluates Theorem 1.1: a family w.r.t. f yields a round
// lower bound of Ω(CC(f) / (|E_cut| log n)). CC(f) is taken from the known
// complexity table (DISJ and EQ and their negations); the result drops
// constant factors.
func ImpliedLowerBound(stats Stats, f comm.Function) (float64, error) {
	cc, ok := comm.KnownDeterministicCC(f, stats.K)
	if !ok {
		return 0, fmt.Errorf("no known complexity for function %s", f.Name())
	}
	if stats.CutSize == 0 || stats.N < 2 {
		return 0, fmt.Errorf("degenerate family stats: %+v", stats)
	}
	return cc / (float64(stats.CutSize) * math.Log2(float64(stats.N))), nil
}

// Verify checks Definition 1.1 exhaustively for all input pairs; it
// requires K <= 12 (2^(2K) predicate evaluations). It checks:
//
//  1. the vertex set (count and order) is fixed;
//  2. for fixed y, varying x changes nothing in G[V_B] nor the cut;
//  3. symmetrically for x;
//  4. Predicate(G_{x,y}) == f(x, y) for every pair.
//
// Families implementing DeltaFamilyOf are verified delta-driven: each
// worker walks its column shard in Gray-code order over x for fixed y,
// toggling only the changed bit's edges between pairs. Everything
// observable — the checks, the first-error choice and its message — is
// identical to the rebuild-every-pair path, which remains the transparent
// fallback. G is inferred from the family's methods.
func Verify[G Instance](fam Family[G]) error { return VerifyCtx(context.Background(), fam) }

// VerifyCtx is Verify with cancellation: when ctx is cancelled (or its
// deadline passes) mid-sweep, the workers drain promptly and the call
// returns a *CancelledError carrying the completed/total pair counts
// instead of running the remaining pairs to completion. A panic inside a
// worker is confined to its pair and surfaces as a *PanicError naming the
// (x, y) pair.
func VerifyCtx[G Instance](ctx context.Context, fam Family[G]) error {
	return verifyExhaustive(ctx, fam, false)
}

// VerifySampled checks Definition 1.1 on up to trials distinct random
// input pairs plus the all-zeros and all-ones corners (random draws are
// deduplicated — a repeated string would only re-run identical predicate
// evaluations). Structural conditions (1-3) are checked pairwise across
// the sample.
func VerifySampled[G Instance](fam Family[G], rng *rand.Rand, trials int) error {
	return VerifySampledCtx(context.Background(), fam, rng, trials)
}

// VerifySampledCtx is VerifySampled with cancellation, like VerifyCtx.
func VerifySampledCtx[G Instance](ctx context.Context, fam Family[G], rng *rand.Rand, trials int) error {
	inputs := sampledInputs(fam.K(), rng, trials)
	return verify(ctx, fam, inputs, inputs, false)
}

// verifyExhaustive verifies fam over the whole input cube.
func verifyExhaustive[G Instance](ctx context.Context, fam Family[G], forceRebuild bool) error {
	k := fam.K()
	if k > 12 {
		return fmt.Errorf("exhaustive verification limited to K <= 12, got %d (use VerifySampled)", k)
	}
	inputs := make([]comm.Bits, 0, 1<<uint(k))
	if err := comm.AllBits(k, func(b comm.Bits) { inputs = append(inputs, b.Clone()) }); err != nil {
		return err
	}
	return verify(ctx, fam, inputs, inputs, forceRebuild)
}

// sampledInputs draws the shared sampled-verification input set: the
// all-zeros and all-ones corners plus up to trials distinct random k-bit
// strings (duplicates are discarded — re-running an identical input adds
// no coverage).
func sampledInputs(k int, rng *rand.Rand, trials int) []comm.Bits {
	ones := comm.OnesBits(k)
	inputs := []comm.Bits{comm.NewBits(k), ones}
	seen := map[string]bool{inputs[0].String(): true, ones.String(): true}
	for i := 0; i < trials; i++ {
		b := comm.RandomBits(k, rng)
		if key := b.String(); !seen[key] {
			seen[key] = true
			inputs = append(inputs, b)
		}
	}
	return inputs
}

// pairOutcome is what verification phase 1 records per (x, y) pair: the
// vertex count, the structural hashes and the predicate's verdict. The
// pair's errors live in its PairStatus.
type pairOutcome struct {
	n   int
	h   graph.SideHashes
	got bool
}

// errVertexCount fails a pair whose vertex count differs from the Alice
// side's; the scan reports it as a condition 1 violation.
var errVertexCount = errors.New("vertex count differs from the Alice side")

// verify checks Definition 1.1 over xs × ys: phase 1 computes every
// pair's outcome on the sweep engine, phase 2 scans them serially.
func verify[G Instance](ctx context.Context, fam Family[G], xs, ys []comm.Bits, forceRebuild bool) error {
	side, err := AliceSide(fam)
	if err != nil {
		return fmt.Errorf("alice side: %w", err)
	}
	if len(xs)*len(ys) == 0 {
		return nil
	}
	outcomes, status, _ := collectOutcomes(ctx, fam, side, xs, ys, forceRebuild)
	completed := 0
	for _, st := range status {
		if st.Done {
			completed++
		}
	}
	if err := ctx.Err(); err != nil && completed < len(status) {
		return &CancelledError{Completed: completed, Total: len(status), Err: err}
	}
	return scanOutcomes(fam, side, xs, ys, outcomes, status)
}

// collectOutcomes is verification phase 1: every pair's outcome, indexed
// row-major (x-major), computed delta-driven when the family has a delta
// surface that passes the spot-check, by rebuilding every instance
// otherwise. It also reports whether the delta walk produced them. A
// delta walk whose base build or ApplyBit fails falls back to the
// rebuild path, whose error reporting is the reference; a merely
// cancelled one does not — the interruption is the caller's to report.
func collectOutcomes[G Instance](ctx context.Context, fam Family[G], side []bool, xs, ys []comm.Bits, forceRebuild bool) ([]pairOutcome, []PairStatus, bool) {
	if df, ok := fam.(DeltaFamilyOf[G]); ok && !forceRebuild && deltaSurfaceConsistent(df, side) {
		if outcomes, status, err := verifyPairs(ctx, fam, side, xs, ys, true); err == nil && !deltaBroken(status) {
			return outcomes, status, true
		}
	}
	outcomes, status, _ := verifyPairs(ctx, fam, side, xs, ys, false)
	return outcomes, status, false
}

// deltaBroken reports whether some delta worker's ApplyBit failed.
func deltaBroken(status []PairStatus) bool {
	for _, st := range status {
		if _, ok := st.Err.(*ApplyError); ok {
			return true
		}
	}
	return false
}

// verifyPairs runs phase 1 on the sweep engine. Columns are the ys; each
// walks the xs in walkOrder. A delta worker folds its instance's mutation
// journal into running hashes, O(1) per toggled element, where the
// rebuild path rehashes every instance.
func verifyPairs[G Instance](ctx context.Context, fam Family[G], side []bool, xs, ys []comm.Bits, delta bool) ([]pairOutcome, []PairStatus, error) {
	outcomes := make([]pairOutcome, len(xs)*len(ys))
	k := fam.K()
	order := walkOrder(xs, k)
	sw := Sweep[G]{
		Cols: len(ys), ColLen: len(xs), K: k, Build: fam.Build,
		Pair: func(c, i int) (int, comm.Bits, comm.Bits) {
			xi := order[i]
			return xi*len(ys) + c, xs[xi], ys[c]
		},
		Worker: func(g G) Step[G] {
			eval := fam.Predicate
			var h graph.SideHashes
			if delta {
				g.FreezePatchable()
				g.StartJournal()
				h = g.SideHashes(side)
				if of, ok := fam.(OracleFamily[G]); ok {
					eval = of.NewPredicateOracle().Eval
				}
			}
			return func(idx int, g G, x, y comm.Bits) error {
				out := &outcomes[idx]
				if out.n = g.N(); out.n != len(side) {
					return errVertexCount
				}
				if delta {
					g.FoldJournal(side, &h)
					out.h = h
				} else {
					out.h = g.SideHashes(side)
				}
				var err error
				out.got, err = eval(g)
				return err
			}
		},
	}
	if delta {
		df := fam.(DeltaFamilyOf[G])
		sw.BuildBase, sw.ApplyBit = df.BuildBase, df.ApplyBit
	}
	status, err := sw.Run(ctx)
	return outcomes, status, err
}

// deltaSurfaceConsistent spot-checks the delta contract before the delta
// path is trusted: BuildBase plus ApplyBit(val = true) over every bit of
// both players must reproduce Build's all-ones instance — same vertex
// count, same cut and induced-side hashes. This exercises every bit's
// attached elements once for the cost of two builds; a family whose
// ApplyBit disagrees with Build falls back to the rebuild path (as does a
// family whose base build fails, so the rebuild path reports its error).
func deltaSurfaceConsistent[G Instance](fam DeltaFamilyOf[G], side []bool) bool {
	var none G
	ones := comm.OnesBits(fam.K())
	want, err := fam.Build(ones, ones)
	if err != nil || want == none || want.N() != len(side) {
		return false
	}
	g, err := fam.BuildBase()
	if err != nil || g == none || g.N() != len(side) {
		return false
	}
	for _, player := range [2]int{PlayerX, PlayerY} {
		for i := 0; i < fam.K(); i++ {
			if err := fam.ApplyBit(g, player, i, true); err != nil {
				return false
			}
		}
	}
	return g.SideHashes(side) == want.SideHashes(side)
}

// walkOrder returns the sequence of xs indices a delta worker visits per
// column. When xs is the canonical AllBits enumeration (xs[i] encodes the
// integer i), the reflected Gray code i XOR i>>1 visits every input with
// exactly one bit toggled between consecutive visits; otherwise (sampled
// verification) the sample order is kept and each step toggles the
// Hamming distance between consecutive samples.
func walkOrder(xs []comm.Bits, k int) []int {
	order := make([]int, len(xs))
	if k <= 24 && len(xs) == 1<<uint(k) && canonicalCube(xs, k) {
		for s := range order {
			order[s] = s ^ (s >> 1)
		}
		return order
	}
	for i := range order {
		order[i] = i
	}
	return order
}

// canonicalCube reports whether xs[i] encodes the integer i for all i.
func canonicalCube(xs []comm.Bits, k int) bool {
	for i, x := range xs {
		want, err := comm.BitsFromUint64(k, uint64(i))
		if err != nil || !x.Equal(want) {
			return false
		}
	}
	return true
}

// scanOutcomes is verification phase 2: the serial row-major scan that
// turns the outcomes into the first violation, identical in order and
// messages to the historical serial verifier.
func scanOutcomes[G Instance](fam Family[G], side []bool, xs, ys []comm.Bits, outcomes []pairOutcome, status []PairStatus) error {
	f := fam.Func()
	cut := "edges"
	if IsDigraph[G]() {
		cut = "arcs"
	}
	wantN := -1
	var cutHash uint64
	bByY := make([]uint64, len(ys))
	bSeen := make([]bool, len(ys))
	aByX := make([]uint64, len(xs))
	aSeen := make([]bool, len(xs))
	for xi, x := range xs {
		for yi, y := range ys {
			idx := xi*len(ys) + yi
			out, err := &outcomes[idx], status[idx].Err
			switch e := err.(type) {
			case *PanicError:
				// Checked before the structural conditions: a pair that
				// panicked mid-compute has no meaningful n or hashes.
				return e
			case *BuildError:
				return fmt.Errorf("build(%s,%s): %w", x, y, e.Err)
			}
			if wantN == -1 {
				wantN = out.n
				if len(side) != wantN {
					return fmt.Errorf("AliceSide has %d entries for %d vertices", len(side), wantN)
				}
				cutHash = out.h.Cut
			}
			if out.n != wantN {
				return fmt.Errorf("condition 1 violated: vertex count %d != %d at (%s,%s)", out.n, wantN, x, y)
			}
			if out.h.Cut != cutHash {
				return fmt.Errorf("cut %s changed with input at (%s,%s)", cut, x, y)
			}
			if bSeen[yi] && bByY[yi] != out.h.B {
				return fmt.Errorf("condition 2 violated: G[V_B] changed with x at (%s,%s)", x, y)
			}
			bByY[yi], bSeen[yi] = out.h.B, true
			if aSeen[xi] && aByX[xi] != out.h.A {
				return fmt.Errorf("condition 3 violated: G[V_A] changed with y at (%s,%s)", x, y)
			}
			aByX[xi], aSeen[xi] = out.h.A, true
			if err != nil {
				return fmt.Errorf("predicate at (%s,%s): %w", x, y, err)
			}
			if want := f.Eval(x, y); out.got != want {
				return fmt.Errorf("condition 4 violated at (x=%s, y=%s): P=%v but %s=%v", x, y, out.got, f.Name(), want)
			}
		}
	}
	return nil
}

// SimulateTwoParty runs a CONGEST algorithm on G_{x,y} with Alice
// simulating V_A and Bob V_B, metering the bits that cross the cut. This is
// the simulation at the heart of Theorem 1.1: a T-round algorithm yields a
// protocol exchanging at most 2*T*|E_cut|*B bits.
func SimulateTwoParty(fam Family[*graph.Graph], x, y comm.Bits, factory congest.Factory) (*congest.Result, error) {
	g, err := fam.Build(x, y)
	if err != nil {
		return nil, err
	}
	return congest.Run(g, factory, congest.Options{CutSide: fam.AliceSide()})
}

// DerivedFamily implements Theorem 2.6 (reductions between families of
// lower bound graphs): it transforms every graph of an inner family with a
// fixed, input-oblivious transformation and replaces the predicate. If the
// transformation maps V_A-local structure to V'_A-local structure (and
// symmetrically) — which Verify re-checks from scratch — the derived family
// is again a family of lower bound graphs.
type DerivedFamily struct {
	// Inner is the source family (P1 in Theorem 2.6).
	Inner Family[*graph.Graph]
	// FamilyName names the derived family.
	FamilyName string
	// Transform maps G_{x,y} and the inner Alice side to the derived graph
	// and its Alice side. It must be deterministic and input-oblivious.
	Transform func(g *graph.Graph, aliceSide []bool) (*graph.Graph, []bool, error)
	// Pred decides the derived predicate P2.
	Pred func(g *graph.Graph) (bool, error)
	// F overrides the function; nil keeps the inner family's function.
	F comm.Function

	// The derived side is input-oblivious, so it is learned exactly once
	// from the all-zeros instance.
	sideOnce   sync.Once
	cachedSide []bool
	sideErr    error
}

var _ Family[*graph.Graph] = (*DerivedFamily)(nil)

// Name returns the derived family's name.
func (d *DerivedFamily) Name() string { return d.FamilyName }

// K returns the inner family's input length.
func (d *DerivedFamily) K() int { return d.Inner.K() }

// Func returns the override function or the inner one.
func (d *DerivedFamily) Func() comm.Function {
	if d.F != nil {
		return d.F
	}
	return d.Inner.Func()
}

// Build builds the inner graph and applies the transformation.
func (d *DerivedFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	g, err := d.Inner.Build(x, y)
	if err != nil {
		return nil, err
	}
	out, _, err := d.Transform(g, d.Inner.AliceSide())
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AliceSideChecked returns the derived partition, building the all-zeros
// instance once (guarded by sync.Once) to learn it, and surfaces the build
// or transform error instead of silently returning nil.
func (d *DerivedFamily) AliceSideChecked() ([]bool, error) {
	d.sideOnce.Do(func() {
		zero := comm.NewBits(d.K())
		g, err := d.Inner.Build(zero, zero)
		if err != nil {
			d.sideErr = err
			return
		}
		_, side, err := d.Transform(g, d.Inner.AliceSide())
		if err != nil {
			d.sideErr = err
			return
		}
		d.cachedSide = side
	})
	return d.cachedSide, d.sideErr
}

// AliceSide returns the derived partition (building the zero instance once
// if needed to learn it); nil if that build fails — use AliceSideChecked
// for the error.
func (d *DerivedFamily) AliceSide() []bool {
	side, _ := d.AliceSideChecked()
	return side
}

// Predicate decides the derived predicate.
func (d *DerivedFamily) Predicate(g *graph.Graph) (bool, error) { return d.Pred(g) }
