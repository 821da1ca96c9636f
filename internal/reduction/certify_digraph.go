package reduction

import (
	"context"
	"fmt"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// DigraphAlgorithm is a CONGEST algorithm for directed instances, paired
// with a family predicate: Algorithm with a digraph-taking Prepare.
type DigraphAlgorithm struct {
	// Name identifies the algorithm in reports, e.g. "collect".
	Name string
	// Exact declares that the algorithm decides P exactly; CertifyDigraph
	// flags the declaration against the measured mismatch count.
	Exact bool
	// Prepare is called once per (x, y) pair with the instance digraph,
	// the run's bandwidth and the pair's seed. The returned factory must
	// be deterministic given (d, seed) — transcript replay re-executes it.
	Prepare func(d *graph.Digraph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error)
}

// CertifyDigraph is Certify for directed families: it runs alg over
// (x, y) input pairs of fam — exhaustively when cfg.Pairs == 0
// (K <= MaxExhaustiveCertifyK), sampled otherwise — with the Alice/Bob
// arc cut metered, and reports per-pair {rounds, cut traffic, output,
// correct} plus the aggregate 2·T·B·|E_cut| budget against CC(f). It
// shares Certify's body and sweep engine: families implementing
// lbfamily.DeltaDigraphFamily give each worker a private instance walked
// by ApplyBit arc toggles, with the patchable out-adjacency snapshot
// spliced in place between runs and a reused congest arena.
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
	return certify(ctx, lbfamily.Directed(fam), alg.Name, alg.Exact, cfg, alg.Prepare)
}

// VerifyDigraphSimulation is VerifySimulation on a digraph. It remains for
// the benchmark harness, which names it.
func VerifyDigraphSimulation(d *graph.Digraph, side []bool, factory congest.Factory, opts congest.Options) (*TwoPartyTranscript, *congest.Result, error) {
	return VerifySimulation(d, side, factory, opts)
}
