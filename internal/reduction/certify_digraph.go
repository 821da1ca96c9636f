package reduction

import (
	"context"
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// DigraphAlgorithm is a CONGEST algorithm for directed instances, paired
// with a family predicate — the dicongest twin of Algorithm.
type DigraphAlgorithm struct {
	// Name identifies the algorithm in reports, e.g. "collect".
	Name string
	// Exact declares that the algorithm decides P exactly; CertifyDigraph
	// flags the declaration against the measured mismatch count.
	Exact bool
	// Prepare is called once per (x, y) pair with the instance digraph,
	// the run's bandwidth and the pair's seed. The returned factory must
	// be deterministic given (d, seed) — transcript replay re-executes it.
	Prepare func(d *graph.Digraph, bandwidth int, seed int64) (dicongest.Factory, func(*dicongest.Result) (bool, error), error)
}

// CertifyDigraph is Certify for directed families: it runs alg over
// (x, y) input pairs of fam — exhaustively when cfg.Pairs == 0
// (K <= MaxExhaustiveCertifyK), sampled otherwise — with the Alice/Bob
// arc cut metered, and reports per-pair {rounds, cut traffic, output,
// correct} plus the aggregate 2·T·B·|E_cut| budget against CC(f). It
// shares Certify's body and sweep engine: families implementing
// lbfamily.DeltaDigraphFamily give each worker a private instance walked
// by ApplyBit arc toggles, with the patchable out-adjacency snapshot
// spliced in place between runs and a reused dicongest arena.
func CertifyDigraph(fam lbfamily.DigraphFamily, alg DigraphAlgorithm, cfg Config) (*Report, error) {
	return CertifyDigraphCtx(context.Background(), fam, alg, cfg)
}

// CertifyDigraphCtx is CertifyDigraph with cancellation and panic
// confinement, exactly as CertifyCtx. See Report for the partial-report
// invariants.
func CertifyDigraphCtx(ctx context.Context, fam lbfamily.DigraphFamily, alg DigraphAlgorithm, cfg Config) (*Report, error) {
	if alg.Prepare == nil {
		return nil, fmt.Errorf("algorithm %q has no Prepare", alg.Name)
	}
	return certify(ctx, lbfamily.Directed(fam), alg.Name, alg.Exact, cfg, alg.simulator)
}

// simulator is Algorithm.simulator on dicongest.
func (alg DigraphAlgorithm) simulator(r runSpec, arena bool) pairSim[*graph.Digraph] {
	var a *dicongest.Arena
	if arena {
		a = &dicongest.Arena{}
	}
	return func(idx int, d *graph.Digraph, x, y comm.Bits) (PairReport, error) {
		factory, decide, err := alg.Prepare(d, r.bandwidth, pairSeed(r.cfg.Seed, idx))
		if err != nil {
			return PairReport{}, fmt.Errorf("prepare (%s,%s): %w", x, y, err)
		}
		opts := dicongest.Options{BandwidthBits: r.bandwidth, MaxRounds: r.cfg.MaxRounds, CutSide: r.side, Faults: r.cfg.Faults, Arena: a}
		if r.cfg.Trace != nil {
			opts.Trace = r.cfg.Trace(idx, x, y)
		}
		var res *dicongest.Result
		if idx < r.cfg.TranscriptChecks {
			_, res, err = VerifyDigraphSimulation(d, r.side, factory, opts)
		} else {
			res, err = dicongest.Run(d, factory, opts)
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
