package reduction

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/obs"
)

// Algorithm is a CONGEST algorithm paired with a family predicate: Prepare
// builds the node programs for one instance graph and an extractor that
// turns the finished run into the algorithm's yes/no decision for P.
type Algorithm struct {
	// Name identifies the algorithm in reports, e.g. "collect".
	Name string
	// Exact declares that the algorithm decides P exactly; Certify flags
	// the declaration against the measured mismatch count.
	Exact bool
	// Prepare is called once per (x, y) pair with the instance graph, the
	// run's bandwidth and the pair's seed. The returned factory must be
	// deterministic given (g, seed) — transcript replay re-executes it.
	Prepare func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error)
}

// MaxExhaustiveCertifyK is the largest input length K for exhaustive
// certification: all 2^(2K) pairs are simulated, so the cap bounds the
// worst case at 65536 CONGEST runs. The sharded sweep amortizes that
// over GOMAXPROCS workers holding reused instances and arenas (per-pair
// cost is one delta toggle plus one arena-backed run), which is what
// lifted the cap from the serial era's K = 6. It is shared by Certify
// and CertifyDigraph; beyond it, set Config.Pairs > 0 for sampled
// certification, whose cost scales with Pairs/Workers instead of
// 2^(2K)/Workers.
const MaxExhaustiveCertifyK = 8

// Config tunes Certify and CertifyDigraph. The zero value selects the
// exhaustive sharded sweep: all 2^(2K) pairs, GOMAXPROCS workers, seed 0,
// the default bandwidth, no faults and no transcript checks.
type Config struct {
	// Pairs is the number of sampled (x, y) pairs; 0 selects exhaustive
	// certification over all 2^(2K) pairs, which requires
	// K <= MaxExhaustiveCertifyK.
	Pairs int
	// Seed drives pair sampling and the per-pair algorithm seeds. A
	// pair's seed is a pure function of (Seed, idx), where idx is the
	// pair's position in the canonical sweep order — never of the worker
	// that happens to claim it — so the same Config produces bit-identical
	// reports serial, sharded, and at any worker count.
	Seed int64
	// Bandwidth overrides the CONGEST bandwidth B (0 selects the default
	// 2*ceil(log2(n+1))).
	Bandwidth int
	// ForceRebuild disables the DeltaFamily incremental instance builder,
	// rebuilding every G_{x,y} from scratch (the differential-testing
	// reference path).
	ForceRebuild bool
	// TranscriptChecks runs the Theorem 1.1 simulation-invariant check
	// (VerifySimulation) on that many of the certified pairs: the run is
	// replayed from Alice's side plus the recorded transcript and must
	// reproduce her outputs and messages exactly. The checked pairs are
	// the first TranscriptChecks positions of the canonical sweep order,
	// so the same pairs are checked regardless of worker scheduling.
	TranscriptChecks int
	// Faults injects a deterministic fault plan into every certified run
	// (dropped, delayed or failed links, crashed nodes — see the faults
	// package). Faults act after the sender's messages are validated and
	// metered, so the Theorem 1.1 cut accounting and transcript replay are
	// preserved; nil runs fault-free.
	Faults *faults.Plan
	// MaxRounds overrides the simulators' runaway guard (0 keeps their
	// default 4n²+64). Retransmitting algorithms bake a larger round
	// budget into their programs — see algorithms.CollectRetryRoundsCap
	// for the collect-retry value.
	MaxRounds int
	// Progress, if non-nil, is called after every certified pair with the
	// completed and total pair counts — the hook the serving layer uses
	// to poll and stream per-pair job progress. Under the sharded sweep
	// it is called from worker goroutines, but calls are serialized and
	// completed is strictly increasing, so the hook itself needs no
	// locking; keep it cheap and non-blocking, since it runs under the
	// sweep's progress mutex.
	Progress func(completed, total int)
	// Trace, if non-nil, is consulted before each pair's CONGEST run
	// with the pair's canonical index and inputs; the returned tracer
	// (the congest.Tracer interface both simulators share) observes
	// that run's rounds, and returning nil skips tracing the pair.
	// Purely observational: reports are bit-identical with or without
	// it. Under the sharded sweep, tracers of different pairs run
	// concurrently from worker goroutines — set Serial for a strictly
	// ordered round stream. Transcript-checked pairs replay the run, so
	// their rounds are observed twice; set TranscriptChecks to 0 for
	// clean traces.
	Trace func(idx int, x, y comm.Bits) congest.Tracer
	// Metrics, if non-nil, receives per-pair measurements as pairs
	// complete: wall-clock latency, simulated rounds and cut bits land
	// in the bundle's histograms (see obs.SweepMetrics). Purely
	// observational and safe under the sharded sweep (the histograms
	// are atomic). This is the one place certification reads the wall
	// clock, and the reading never feeds results — only histograms.
	Metrics *obs.SweepMetrics
	// Serial runs the historical single-goroutine walk instead of the
	// sharded sweep: one mutable delta instance (or per-pair rebuilds),
	// pairs visited strictly in canonical order, no arena reuse. It is
	// the differential-testing reference — the sharded sweep must produce
	// a bit-identical Report — and the path whose partial reports are an
	// exact prefix of the sweep order.
	Serial bool
	// Workers caps the sharded sweep's worker count; 0 selects
	// GOMAXPROCS. Each worker holds a private instance (DeltaFamily base
	// or per-pair rebuilds) and a private simulator arena, so memory
	// scales linearly with Workers. Ignored when Serial is set.
	Workers int
}

// PairReport is the measured outcome of one (x, y) certification run:
// the pair's inputs (cloned, safe to retain), the run's round and
// message counts, the Alice/Bob cut traffic that enters the Theorem 1.1
// budget, and the algorithm's output against the family predicate's
// ground truth. Every PairReport in a returned Report — including a
// partial one — is fully populated; there are no placeholder entries.
type PairReport struct {
	X, Y        comm.Bits
	Rounds      int
	Messages    int64
	CutMessages int64
	CutBits     int64
	Output      bool
	Want        bool
	Correct     bool
}

// Report aggregates a certification: per-pair measurements plus the
// Theorem 1.1 accounting. SimBits = 2·maxRounds·B·|E_cut| is the protocol
// budget the slowest run grants the two-party simulation; CCBound is the
// known deterministic communication complexity of the family's function at
// input length K (0 if the function is not in the known table). An exact
// algorithm must satisfy SimBits >= CCBound — that inequality is the lower
// bound, and Certify returns a *BoundViolationError with an exhaustive,
// mismatch-free report that breaks it.
type Report struct {
	Family     string
	Algorithm  string
	Exact      bool
	Exhaustive bool
	Stats      lbfamily.Stats
	Bandwidth  int
	Pairs      []PairReport
	Mismatches int
	MaxRounds  int
	MaxCutBits int64
	SimBits    int64
	CCBound    float64
	// Completed and Total count certified vs selected pairs; Completed ==
	// len(Pairs) always, and Completed == Total exactly when the sweep
	// finished. They differ only in a partial report, which arrives
	// alongside a non-nil error and comes in two shapes:
	//
	//   - *lbfamily.PanicError: Pairs is the exact canonical-order prefix
	//     preceding the panicked pair (sharded sweeps discard any
	//     later pairs that finished, matching the serial walk);
	//   - *lbfamily.CancelledError: Pairs holds the pairs certified
	//     before ctx fired, in canonical order; under a sharded sweep the
	//     set may have gaps (workers stop mid-column), but the error's
	//     Completed/Total always agree with len(Pairs)/Total.
	//
	// The aggregate fields (Mismatches, MaxRounds, MaxCutBits, SimBits)
	// are computed over the included pairs only.
	Completed int
	Total     int
}

// Certify runs alg over (x, y) input pairs of fam — exhaustively when
// cfg.Pairs == 0 (K <= MaxExhaustiveCertifyK), sampled otherwise — with
// the Alice/Bob cut metered, and reports per-pair {rounds, cut traffic,
// output, correct} plus the aggregate rounds·B·|E_cut| budget against
// CC(f). The sweep runs on lbfamily's sharded engine: workers
// (cfg.Workers, GOMAXPROCS by default) claim Gray-code columns; for
// families implementing lbfamily.DeltaFamily each worker holds a private
// base instance built once from BuildBase and walks its claimed columns
// by ApplyBit toggles (Hamming distance 1 between consecutive pairs of a
// column) with a reused simulator arena, so steady-state allocations per
// pair are near zero; other families rebuild each claimed G_{x,y} from
// scratch. Per-pair seeds are keyed by canonical pair index, so the
// report is bit-identical to the cfg.Serial reference walk at any worker
// count.
func Certify(fam lbfamily.Family, alg Algorithm, cfg Config) (*Report, error) {
	return CertifyCtx(context.Background(), fam, alg, cfg)
}

// CertifyCtx is Certify with cancellation and panic confinement: when
// ctx fires mid-sweep, workers stop claiming pairs and the partial
// report (the certified pairs, in canonical order) is returned alongside
// a *lbfamily.CancelledError whose Completed/Total match the report; a
// panic inside one pair — in its ApplyBit or Build, the algorithm or the
// simulator — is confined and returned as a *lbfamily.PanicError naming
// the earliest failing (x, y) pair in canonical order, with the report
// truncated to that pair's prefix exactly as the serial walk would have
// left it. See Report for the partial-report invariants.
func CertifyCtx(ctx context.Context, fam lbfamily.Family, alg Algorithm, cfg Config) (*Report, error) {
	if alg.Prepare == nil {
		return nil, fmt.Errorf("algorithm %q has no Prepare", alg.Name)
	}
	return certify(ctx, lbfamily.Undirected(fam), alg.Name, alg.Exact, cfg, alg.simulator)
}

// pairSim runs an algorithm on one pair's instance g and returns the
// run's measurements: Rounds, Messages, CutMessages, CutBits and Output.
type pairSim[G lbfamily.Instance] func(idx int, g G, x, y comm.Bits) (PairReport, error)

// runSpec is what every pair's simulation shares.
type runSpec struct {
	cfg       Config
	bandwidth int
	side      []bool
}

// simulator returns one worker's pairSim; arena selects a private,
// reused congest arena.
func (alg Algorithm) simulator(r runSpec, arena bool) pairSim[*graph.Graph] {
	var a *congest.Arena
	if arena {
		a = &congest.Arena{}
	}
	return func(idx int, g *graph.Graph, x, y comm.Bits) (PairReport, error) {
		factory, decide, err := alg.Prepare(g, r.bandwidth, pairSeed(r.cfg.Seed, idx))
		if err != nil {
			return PairReport{}, fmt.Errorf("prepare (%s,%s): %w", x, y, err)
		}
		opts := congest.Options{BandwidthBits: r.bandwidth, MaxRounds: r.cfg.MaxRounds, CutSide: r.side, Faults: r.cfg.Faults, Arena: a}
		if r.cfg.Trace != nil {
			opts.Trace = r.cfg.Trace(idx, x, y)
		}
		// The transcript-checked pairs are the first TranscriptChecks
		// canonical indices — a pure function of idx, not of visit order,
		// so serial and sharded sweeps check (and replay) the same pairs.
		var res *congest.Result
		if idx < r.cfg.TranscriptChecks {
			_, res, err = VerifySimulation(g, r.side, factory, opts)
		} else {
			res, err = congest.Run(g, factory, opts)
		}
		if err != nil {
			return PairReport{}, fmt.Errorf("run (%s,%s): %w", x, y, err)
		}
		output, err := decide(res)
		if err != nil {
			return PairReport{}, fmt.Errorf("decide (%s,%s): %w", x, y, err)
		}
		return PairReport{Rounds: res.Rounds, Messages: res.Messages, CutMessages: res.CutMessages, CutBits: res.CutBits, Output: output}, nil
	}
}

// certify is the one body behind CertifyCtx and CertifyDigraphCtx: it
// lays out the pairs, runs them on the sweep engine — sharded, or the
// cfg.Serial reference walk — with one simulator per worker, and
// resolves the outcome into the report/error contract.
func certify[G lbfamily.Instance](ctx context.Context, fam lbfamily.Surface[G], alg string, exact bool, cfg Config, simulator func(runSpec, bool) pairSim[G]) (*Report, error) {
	side, err := fam.Side()
	if err != nil {
		return nil, fmt.Errorf("alice side: %w", err)
	}
	stats, err := fam.Stats()
	if err != nil {
		return nil, err
	}
	if len(side) != stats.N {
		return nil, fmt.Errorf("AliceSide has %d entries for %d vertices", len(side), stats.N)
	}
	bandwidth := cfg.Bandwidth
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(stats.N)
	}
	xs, ys, exhaustive, err := certifyPairs(fam.K, cfg)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Family:     fam.Name,
		Algorithm:  alg,
		Exact:      exact,
		Exhaustive: exhaustive,
		Stats:      stats,
		Bandwidth:  bandwidth,
		Pairs:      make([]PairReport, len(xs)),
		Total:      len(xs),
	}
	f := fam.Func

	// A column is a fixed-y block of 2^K consecutive canonical indices
	// for exhaustive sweeps (certifyPairs lays the cube out y-major in
	// Gray order) and a single pair for sampled ones.
	colLen := 1
	if exhaustive {
		colLen = len(xs) >> uint(fam.K)
	}
	// The Progress hook contract: serialized calls, strictly increasing
	// completed counts. The mutex covers both the increment and the call.
	var mu sync.Mutex
	completed := 0
	sw := lbfamily.Sweep[G]{
		Cols: len(xs) / colLen, ColLen: colLen, K: fam.K, Workers: cfg.Workers, Build: fam.Build,
		Pair: func(c, i int) (int, comm.Bits, comm.Bits) {
			idx := c*colLen + i
			return idx, xs[idx], ys[idx]
		},
		Worker: func(G) lbfamily.Step[G] {
			sim := simulator(runSpec{cfg: cfg, bandwidth: bandwidth, side: side}, !cfg.Serial)
			return func(idx int, g G, x, y comm.Bits) error {
				var started time.Time
				if cfg.Metrics != nil {
					started = time.Now() //nolint:hardlint/detrand wall-clock feeds observability histograms only, never certification results
				}
				p, err := sim(idx, g, x, y)
				if err != nil {
					return err
				}
				if cfg.Metrics != nil {
					cfg.Metrics.ObservePair(time.Since(started).Seconds(), int64(p.Rounds), p.CutBits) //nolint:hardlint/detrand wall-clock feeds observability histograms only, never certification results
				}
				p.X, p.Y, p.Want = x.Clone(), y.Clone(), f.Eval(x, y)
				p.Correct = p.Output == p.Want
				report.Pairs[idx] = p
				if cfg.Progress != nil {
					mu.Lock()
					completed++
					cfg.Progress(completed, report.Total)
					mu.Unlock()
				}
				return nil
			}
		},
	}
	if fam.BuildBase != nil && !cfg.ForceRebuild {
		sw.BuildBase, sw.ApplyBit = fam.BuildBase, fam.ApplyBit
	}
	if cfg.Serial {
		done, err := sw.Serial(ctx)
		if err != nil {
			return partialReport(report, done, f, err)
		}
		report.Completed = done
		report.finalize(f)
		return report, report.checkBound()
	}
	status, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	return resolveSweep(report, status, ctx.Err(), f)
}

// partialReport resolves an interrupted sweep: cancellations and confined
// panics return the truncated-but-finalized report alongside the error
// (the completed pairs' measurements are still valid Theorem 1.1 data);
// any other failure returns no report, as before.
func partialReport(report *Report, completed int, f comm.Function, err error) (*Report, error) {
	var cerr *lbfamily.CancelledError
	var perr *lbfamily.PanicError
	if !errors.As(err, &cerr) && !errors.As(err, &perr) {
		return nil, err
	}
	report.Pairs = report.Pairs[:completed]
	report.Completed = completed
	report.finalize(f)
	return report, err
}

// resolveSweep converts a sharded sweep's pair statuses into the report
// and error the serial walk would have returned:
//
//   - every pair certified → the finalized complete report;
//   - an earliest failure whose predecessors all completed → exactly the
//     serial result, via partialReport: later pairs that happened to
//     finish are discarded, as the serial walk would never have run them;
//   - a cancelled sweep → the certified pairs compacted in list order
//     plus a *lbfamily.CancelledError whose Completed matches len(Pairs).
//     Cancellation takes precedence when the earliest failure's
//     predecessors are incomplete (the serial-identical truncation is
//     unavailable), and a sweep that finished every pair before the
//     context fired is complete, not cancelled.
func resolveSweep(report *Report, status []lbfamily.PairStatus, ctxErr error, f comm.Function) (*Report, error) {
	done := 0
	for idx, st := range status {
		if st.Err != nil && (done == idx || ctxErr == nil) {
			return partialReport(report, idx, f, st.Err)
		}
		if st.Done && st.Err == nil {
			report.Pairs[done] = report.Pairs[idx]
			done++
		}
	}
	report.Pairs = report.Pairs[:done]
	report.Completed = done
	report.finalize(f)
	if ctxErr != nil && done < report.Total {
		return report, &lbfamily.CancelledError{Completed: done, Total: report.Total, Err: ctxErr}
	}
	return report, report.checkBound()
}

// finalize computes the aggregate Theorem 1.1 accounting from the
// recorded pairs: mismatch count, worst rounds/cut-bits, the
// 2·T·B·|E_cut| simulation budget and the known CC(f) bound. Shared by
// Certify and CertifyDigraph — the accounting is graph-kind agnostic.
func (r *Report) finalize(f comm.Function) {
	for i := range r.Pairs {
		p := &r.Pairs[i]
		if !p.Correct {
			r.Mismatches++
		}
		if p.Rounds > r.MaxRounds {
			r.MaxRounds = p.Rounds
		}
		if p.CutBits > r.MaxCutBits {
			r.MaxCutBits = p.CutBits
		}
	}
	r.SimBits = 2 * int64(r.MaxRounds) * int64(r.Bandwidth) * int64(r.Stats.CutSize)
	if cc, ok := comm.KnownDeterministicCC(f, r.Stats.K); ok {
		r.CCBound = cc
	}
}

// BoundViolationError reports a certification that contradicts Theorem
// 1.1: an exact algorithm decided every pair of an exhaustive sweep
// correctly within a simulation budget 2·T·B·|E_cut| below CC(f). The
// budget bounds the cost of a two-party protocol deciding f, so such a
// report means the round or cut accounting is wrong, not that the lower
// bound fell. Certify returns it alongside the (complete) report.
type BoundViolationError struct {
	Family    string
	Algorithm string
	SimBits   int64
	CCBound   float64
}

func (e *BoundViolationError) Error() string {
	return fmt.Sprintf("Theorem 1.1 violated: %s/%s decided f exactly with 2*T*B*|E_cut| = %d bits < CC(f) = %.0f",
		e.Family, e.Algorithm, e.SimBits, e.CCBound)
}

// checkBound enforces SimBits >= CCBound on an exhaustive, exact,
// mismatch-free report (the only kind Theorem 1.1 speaks about).
func (r *Report) checkBound() error {
	if r.Exact && r.Exhaustive && r.Mismatches == 0 && float64(r.SimBits) < r.CCBound {
		return &BoundViolationError{Family: r.Family, Algorithm: r.Algorithm, SimBits: r.SimBits, CCBound: r.CCBound}
	}
	return nil
}

// certifyPairs selects the certified input pairs, in canonical order: the
// full 2^(2K) cube y-major in Gray columns when cfg.Pairs == 0, otherwise
// the two corner pairs plus deduplicated random draws up to cfg.Pairs
// total.
func certifyPairs(k int, cfg Config) (xs, ys []comm.Bits, exhaustive bool, err error) {
	if cfg.Pairs <= 0 {
		if k > MaxExhaustiveCertifyK {
			return nil, nil, false, fmt.Errorf("exhaustive certification limited to K <= %d, got %d: 2^(2K) CONGEST runs exceed the sharded sweep's budget even across all cores; set Config.Pairs > 0 for sampled certification, which costs Pairs runs instead", MaxExhaustiveCertifyK, k)
		}
		var inputs []comm.Bits
		if err := comm.AllBits(k, func(b comm.Bits) { inputs = append(inputs, b.Clone()) }); err != nil {
			return nil, nil, false, err
		}
		// Gray order over y in the outer walk and over x within each y
		// column keeps consecutive pairs cheap for the DeltaFamily
		// builder: Hamming distance 1 within a column, and at each
		// column boundary one y bit plus the x jump from the last Gray
		// element back to zero (applyDiff handles any distance).
		for yi := range inputs {
			y := inputs[yi^(yi>>1)]
			for xi := range inputs {
				xs = append(xs, inputs[xi^(xi>>1)])
				ys = append(ys, y)
			}
		}
		return xs, ys, true, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zero, ones := comm.NewBits(k), comm.OnesBits(k)
	seen := map[string]bool{}
	add := func(x, y comm.Bits) {
		key := x.String() + "|" + y.String()
		if !seen[key] {
			seen[key] = true
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	add(zero, zero)
	add(ones, ones)
	// Stop early once every distinct pair has been drawn (the 2^(2k)
	// pair space can be smaller than the request).
	space := -1
	if 2*k < 63 {
		space = 1 << uint(2*k)
	}
	for attempts := 0; len(xs) < cfg.Pairs && len(xs) != space && attempts < 64*cfg.Pairs; attempts++ {
		add(comm.RandomBits(k, rng), comm.RandomBits(k, rng))
	}
	return xs, ys, false, nil
}

// splitmix64 is the package's shared bit mixer, used for per-pair seeds
// and shared-randomness sampling coins.
func splitmix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pairSeed derives the per-pair algorithm seed, independent of the visit
// order.
func pairSeed(seed int64, idx int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(idx))))
}
