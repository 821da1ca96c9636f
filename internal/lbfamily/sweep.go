package lbfamily

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
)

// Instance is a graph kind the sweep engine walks: the *graph.Graph of
// Family or the *graph.Digraph of DigraphFamily. Both kinds expose the
// same structural-hash and delta-journal surface.
type Instance interface {
	*graph.Graph | *graph.Digraph
	N() int
	SideHashes(side []bool) graph.SideHashes
	FoldJournal(side []bool, s *graph.SideHashes)
	FreezePatchable() *graph.CSR
	StartJournal()
}

// Surface is a family seen through its graph kind G: what the verifier
// and the certifier use of Family and its DeltaFamily/OracleFamily
// extensions (Undirected), or of DigraphFamily and its directed twins
// (Directed).
type Surface[G Instance] struct {
	Name string
	K    int
	Func comm.Function
	// Side resolves V_A, surfacing the build error of families
	// (DerivedFamily) that must build an instance to learn it.
	Side      func() ([]bool, error)
	Stats     func() (Stats, error)
	Build     func(x, y comm.Bits) (G, error)
	Predicate func(g G) (bool, error)
	// BuildBase and ApplyBit are the delta surface, nil without one.
	BuildBase func() (G, error)
	ApplyBit  func(g G, player, bit int, val bool) error
	// NewOracle returns a per-worker predicate evaluator, nil without one.
	NewOracle func() func(g G) (bool, error)

	// The kind's words in error messages: the cut's elements ("edges" or
	// "arcs") and the sampled verifier the exhaustive K limit points to.
	cut, sampled string
}

// Undirected is the Surface of an undirected family.
func Undirected(fam Family) Surface[*graph.Graph] {
	s := Surface[*graph.Graph]{
		Name: fam.Name(), K: fam.K(), Func: fam.Func(),
		Side:      func() ([]bool, error) { return aliceSide(fam) },
		Stats:     func() (Stats, error) { return MeasureStats(fam) },
		Build:     fam.Build,
		Predicate: fam.Predicate,
		cut:       "edges",
		sampled:   "VerifySampled",
	}
	if df, ok := fam.(DeltaFamily); ok {
		s.BuildBase, s.ApplyBit = df.BuildBase, df.ApplyBit
	}
	if of, ok := fam.(OracleFamily); ok {
		s.NewOracle = func() func(*graph.Graph) (bool, error) { return of.NewPredicateOracle().Eval }
	}
	return s
}

// Directed is the Surface of a directed family.
func Directed(fam DigraphFamily) Surface[*graph.Digraph] {
	s := Surface[*graph.Digraph]{
		Name: fam.Name(), K: fam.K(), Func: fam.Func(),
		Side:      func() ([]bool, error) { return aliceSide(fam) },
		Stats:     func() (Stats, error) { return MeasureDigraphStats(fam) },
		Build:     fam.Build,
		Predicate: fam.Predicate,
		cut:       "arcs",
		sampled:   "VerifySampledDigraph",
	}
	if df, ok := fam.(DeltaDigraphFamily); ok {
		s.BuildBase, s.ApplyBit = df.BuildBase, df.ApplyBit
	}
	if of, ok := fam.(DigraphOracleFamily); ok {
		s.NewOracle = func() func(*graph.Digraph) (bool, error) { return of.NewDigraphPredicateOracle().Eval }
	}
	return s
}

// aliceSide returns a family's Alice side, through AliceSideChecked when
// the family offers it.
func aliceSide(fam interface{ AliceSide() []bool }) ([]bool, error) {
	if checked, ok := fam.(interface{ AliceSideChecked() ([]bool, error) }); ok {
		return checked.AliceSideChecked()
	}
	return fam.AliceSide(), nil
}

// Step runs one pair on its instance g; a non-nil error fails the pair.
type Step[G Instance] func(idx int, g G, x, y comm.Bits) error

// Sweep is the one sharded walk behind Verify, VerifyDigraph, Certify and
// CertifyDigraph. The pairs form Cols columns of ColLen pairs; workers
// claim whole columns off one atomic counter and visit each column's
// pairs in order. With a delta surface each worker owns one instance,
// built by BuildBase and moved between pairs by ApplyBit over the bits
// that differ (one bit within a Gray column); without one, every pair is
// built by Build.
type Sweep[G Instance] struct {
	Cols, ColLen int
	// Pair maps step i of column c to the pair's canonical index, in
	// [0, Cols*ColLen), and its inputs. The canonical order decides which
	// failure is first.
	Pair func(c, i int) (idx int, x, y comm.Bits)
	// K is the input length per player.
	K int
	// Workers caps the worker count; 0 selects GOMAXPROCS. There is at
	// most one worker per column.
	Workers int

	BuildBase func() (G, error) // nil: rebuild every pair
	ApplyBit  func(g G, player, bit int, val bool) error
	Build     func(x, y comm.Bits) (G, error)

	// Worker returns one worker's Step. It is called once per worker,
	// before any pair, with the worker's delta instance (the zero G when
	// rebuilding), so the Step can keep worker-private state.
	Worker func(g G) Step[G]
}

// PairStatus is one pair's terminal state after Run. Done marks a
// visited pair, which failed iff Err != nil. Err is the Step's error, a
// *BuildError, an *ApplyError, or a *PanicError confined from any of them.
type PairStatus struct {
	Done bool
	Err  error
}

// Run walks the pairs across the workers and returns every pair's status,
// indexed canonically. Pairs after the canonical-first failure may be
// skipped (left not Done): callers report only that failure. A cancelled
// ctx stops workers from starting pairs; a started pair finishes, so Done
// pairs are complete. Run fails only when a delta base build fails,
// before any pair runs.
func (s *Sweep[G]) Run(ctx context.Context) ([]PairStatus, error) {
	status := make([]PairStatus, s.Cols*s.ColLen)
	walkers := make([]*walker[G], s.workers())
	for i := range walkers {
		if ctx.Err() != nil {
			return status, nil // cancelled before any pair
		}
		w, err := s.newWalker()
		if err != nil {
			return nil, err
		}
		walkers[i] = w
	}
	var next, minErr atomic.Int64
	minErr.Store(int64(len(status)))
	var wg sync.WaitGroup
	for _, w := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(ctx, w, status, &next, &minErr)
		}()
	}
	wg.Wait()
	return status, nil
}

// Serial is the reference walk Run is diffed against: one goroutine, one
// instance, every column in order, stopping at the first failure. It
// returns the number of pairs that succeeded and the failure, which is a
// *CancelledError when ctx fires between pairs.
func (s *Sweep[G]) Serial(ctx context.Context) (int, error) {
	w, err := s.newWalker()
	if err != nil {
		return 0, err
	}
	done := 0
	for c := 0; c < s.Cols; c++ {
		for i := 0; i < s.ColLen; i++ {
			if err := ctx.Err(); err != nil {
				return done, &CancelledError{Completed: done, Total: s.Cols * s.ColLen, Err: err}
			}
			if err := w.visit(s.Pair(c, i)); err != nil {
				return done, err
			}
			done++
		}
	}
	return done, nil
}

func (s *Sweep[G]) workers() int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, s.Cols))
}

// worker claims columns until none remain or ctx fires. A failed pair
// lowers minErr, and pairs later in canonical order than it are skipped.
// After an *ApplyError the instance is out of step with the walk, so the
// worker stops.
//
//hardness:hotpath
func (s *Sweep[G]) worker(ctx context.Context, w *walker[G], status []PairStatus, next, minErr *atomic.Int64) {
	for {
		if ctx.Err() != nil {
			return
		}
		c := int(next.Add(1) - 1)
		if c >= s.Cols {
			return
		}
		for i := 0; i < s.ColLen; i++ {
			if ctx.Err() != nil {
				return
			}
			idx, x, y := s.Pair(c, i)
			if int64(idx) > minErr.Load() {
				continue
			}
			err := w.visit(idx, x, y)
			status[idx] = PairStatus{Done: true, Err: err}
			if err == nil {
				continue
			}
			lowerTo(minErr, int64(idx))
			if _, broken := err.(*ApplyError); broken {
				return
			}
		}
	}
}

// lowerTo lowers m to idx if idx is smaller.
func lowerTo(m *atomic.Int64, idx int64) {
	for {
		cur := m.Load()
		if idx >= cur || m.CompareAndSwap(cur, idx) {
			return
		}
	}
}

// walker is one worker's state: its delta instance and the inputs that
// instance currently encodes, plus its Step.
type walker[G Instance] struct {
	s          *Sweep[G]
	g          G
	curX, curY comm.Bits
	step       Step[G]
}

func (s *Sweep[G]) newWalker() (*walker[G], error) {
	w := &walker[G]{s: s}
	if s.BuildBase != nil {
		g, err := s.BuildBase()
		if err != nil {
			return nil, fmt.Errorf("delta base build: %w", err)
		}
		w.g, w.curX, w.curY = g, comm.NewBits(s.K), comm.NewBits(s.K)
	}
	w.step = s.Worker(w.g)
	return w, nil
}

// visit runs one pair: the input diffs (or the build), then the Step, all
// under panic confinement.
func (w *walker[G]) visit(idx int, x, y comm.Bits) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{X: x.Clone(), Y: y.Clone(), Value: r, Stack: debug.Stack()}
		}
	}()
	g := w.g
	if w.s.BuildBase != nil {
		if err := w.apply(PlayerY, x, y); err != nil {
			return err
		}
		if err := w.apply(PlayerX, x, y); err != nil {
			return err
		}
	} else if g, err = w.s.Build(x, y); err != nil {
		return &BuildError{X: x, Y: y, Err: err}
	}
	return w.step(idx, g, x, y)
}

// apply moves player's input of the instance to its value in (x, y),
// toggling only the bits that differ. A failure, panics included, is an
// *ApplyError.
func (w *walker[G]) apply(player int, x, y comm.Bits) (err error) {
	cur, target := w.curX, x
	if player == PlayerY {
		cur, target = w.curY, y
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{X: x.Clone(), Y: y.Clone(), Value: r, Stack: debug.Stack()}
		}
		if err != nil {
			err = &ApplyError{Player: player, X: x, Y: y, Err: err}
		}
	}()
	cur.ForEachDiff(target, func(i int) bool {
		if err = w.s.ApplyBit(w.g, player, i, target.Get(i)); err != nil {
			return false
		}
		cur.Set(i, target.Get(i))
		return true
	})
	return err
}
