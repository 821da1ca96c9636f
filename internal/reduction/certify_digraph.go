package reduction

import (
	"context"
	"fmt"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
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
// correct} plus the aggregate 2·T·B·|E_cut| budget against CC(f).
// Like Certify, the sweep is sharded by Gray-code column across
// cfg.Workers workers: families implementing lbfamily.DeltaDigraphFamily
// give each worker a private instance (BuildBase once, Clone per extra
// worker) walked by ApplyBit arc toggles with the patchable
// out-adjacency snapshot spliced in place between runs and a reused
// dicongest arena; the rebuild path remains as fallback, and the
// cfg.Serial walk as the bit-identical differential reference.
func CertifyDigraph(fam lbfamily.DigraphFamily, alg DigraphAlgorithm, cfg Config) (*Report, error) {
	return CertifyDigraphCtx(context.Background(), fam, alg, cfg)
}

// CertifyDigraphCtx is CertifyDigraph with cancellation and panic
// confinement, mirroring CertifyCtx: a cancelled sweep returns the
// certified pairs alongside a *lbfamily.CancelledError whose
// Completed/Total match the report, and a confined panic returns a
// *lbfamily.PanicError naming the earliest failing pair in canonical
// order with the report truncated to that pair's prefix. See Report for
// the partial-report invariants.
func CertifyDigraphCtx(ctx context.Context, fam lbfamily.DigraphFamily, alg DigraphAlgorithm, cfg Config) (*Report, error) {
	if alg.Prepare == nil {
		return nil, fmt.Errorf("algorithm %q has no Prepare", alg.Name)
	}
	side, err := digraphFamilySide(fam)
	if err != nil {
		return nil, fmt.Errorf("alice side: %w", err)
	}
	stats, err := lbfamily.MeasureDigraphStats(fam)
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
	xs, ys, exhaustive, err := certifyPairs(fam.K(), cfg)
	if err != nil {
		return nil, err
	}

	report := &Report{
		Family:     fam.Name(),
		Algorithm:  alg.Name,
		Exact:      alg.Exact,
		Exhaustive: exhaustive,
		Stats:      stats,
		Bandwidth:  bandwidth,
		Pairs:      make([]PairReport, len(xs)),
	}
	f := fam.Func()
	// As in CertifyCtx, the transcript-checked pairs are the first
	// cfg.TranscriptChecks canonical indices regardless of visit order.
	runPair := func(arena *dicongest.Arena, idx int, d *graph.Digraph, x, y comm.Bits) error {
		factory, decide, err := alg.Prepare(d, bandwidth, pairSeed(cfg.Seed, idx))
		if err != nil {
			return fmt.Errorf("prepare (%s,%s): %w", x, y, err)
		}
		opts := dicongest.Options{BandwidthBits: bandwidth, MaxRounds: cfg.MaxRounds, CutSide: side, Faults: cfg.Faults, Arena: arena}
		if cfg.Trace != nil {
			opts.Trace = cfg.Trace(idx, x, y)
		}
		var started time.Time
		if cfg.Metrics != nil {
			started = time.Now() //nolint:hardlint/detrand wall-clock feeds observability histograms only, never certification results
		}
		var res *dicongest.Result
		if idx < cfg.TranscriptChecks {
			_, res, err = VerifyDigraphSimulation(d, side, factory, opts)
		} else {
			res, err = dicongest.Run(d, factory, opts)
		}
		if err != nil {
			return fmt.Errorf("run (%s,%s): %w", x, y, err)
		}
		output, err := decide(res)
		if err != nil {
			return fmt.Errorf("decide (%s,%s): %w", x, y, err)
		}
		if cfg.Metrics != nil {
			cfg.Metrics.ObservePair(time.Since(started).Seconds(), int64(res.Rounds), res.CutBits) //nolint:hardlint/detrand wall-clock feeds observability histograms only, never certification results
		}
		want := f.Eval(x, y)
		report.Pairs[idx] = PairReport{
			X: x.Clone(), Y: y.Clone(),
			Rounds:      res.Rounds,
			Messages:    res.Messages,
			CutMessages: res.CutMessages,
			CutBits:     res.CutBits,
			Output:      output,
			Want:        want,
			Correct:     output == want,
		}
		return nil
	}

	report.Total = len(xs)
	if cfg.Serial {
		completed := 0
		step := func(idx int, d *graph.Digraph, x, y comm.Bits) error {
			if err := ctx.Err(); err != nil {
				return &lbfamily.CancelledError{Completed: completed, Total: report.Total, Err: err}
			}
			if err := safeStep(func() error { return runPair(nil, idx, d, x, y) }, x, y); err != nil {
				return err
			}
			completed++
			if cfg.Progress != nil {
				cfg.Progress(completed, report.Total)
			}
			return nil
		}
		sweep := func() error {
			if df, ok := fam.(lbfamily.DeltaDigraphFamily); ok && !cfg.ForceRebuild {
				return certifyDigraphDelta(df, xs, ys, step)
			}
			for idx := range xs {
				d, err := fam.Build(xs[idx], ys[idx])
				if err != nil {
					return fmt.Errorf("build (%s,%s): %w", xs[idx], ys[idx], err)
				}
				if err := step(idx, d, xs[idx], ys[idx]); err != nil {
					return err
				}
			}
			return nil
		}
		if err := sweep(); err != nil {
			return partialReport(report, completed, f, err)
		}
		report.Completed = completed
		report.finalize(f)
		return report, report.checkBound()
	}

	// Sharded sweep (the default) — see shard.go and the CertifyCtx twin.
	// Delta instances come from one BuildBase plus Clones: digraph clones
	// are cheap relative to a base rebuild and land each worker on an
	// identical all-zeros instance.
	colLen := 1
	if exhaustive {
		colLen = len(xs) >> uint(fam.K())
	}
	cols := (len(xs) + colLen - 1) / colLen
	workers := sweepWorkers(cfg, cols)
	arenas := make([]*dicongest.Arena, workers)
	for i := range arenas {
		arenas[i] = &dicongest.Arena{}
	}
	plan := &sweepPlan[*graph.Digraph]{
		xs: xs, ys: ys, k: fam.K(), colLen: colLen, workers: workers,
		run: func(worker, idx int, d *graph.Digraph, x, y comm.Bits) error {
			return runPair(arenas[worker], idx, d, x, y)
		},
		progress: cfg.Progress,
	}
	if df, ok := fam.(lbfamily.DeltaDigraphFamily); ok && !cfg.ForceRebuild {
		base, err := df.BuildBase()
		if err != nil {
			return nil, fmt.Errorf("delta base build: %w", err)
		}
		instances := make([]*graph.Digraph, workers)
		instances[0] = base
		for i := 1; i < workers; i++ {
			if err := ctx.Err(); err != nil {
				return partialReport(report, 0, f, &lbfamily.CancelledError{Total: report.Total, Err: err})
			}
			instances[i] = base.Clone()
		}
		plan.instances = instances
		plan.applyBit = df.ApplyBit
	} else {
		plan.build = fam.Build
	}
	return resolveSweep(report, plan.execute(ctx), ctx.Err(), f)
}

// certifyDigraphDelta walks the pair list on a single mutable instance
// built once from BuildBase, toggling only the bits on which consecutive
// pairs differ — the directed twin of certifyDelta.
func certifyDigraphDelta(df lbfamily.DeltaDigraphFamily, xs, ys []comm.Bits, runPair func(idx int, d *graph.Digraph, x, y comm.Bits) error) error {
	d, err := df.BuildBase()
	if err != nil {
		return fmt.Errorf("delta base build: %w", err)
	}
	k := df.K()
	curX, curY := comm.NewBits(k), comm.NewBits(k)
	applyDiff := func(player int, cur, target comm.Bits) error {
		var applyErr error
		cur.ForEachDiff(target, func(i int) bool {
			if err := df.ApplyBit(d, player, i, target.Get(i)); err != nil {
				applyErr = err
				return false
			}
			cur.Set(i, target.Get(i))
			return true
		})
		return applyErr
	}
	for idx := range xs {
		if err := applyDiff(lbfamily.PlayerY, curY, ys[idx]); err != nil {
			return fmt.Errorf("delta apply y at (%s,%s): %w", xs[idx], ys[idx], err)
		}
		if err := applyDiff(lbfamily.PlayerX, curX, xs[idx]); err != nil {
			return fmt.Errorf("delta apply x at (%s,%s): %w", xs[idx], ys[idx], err)
		}
		if err := runPair(idx, d, xs[idx], ys[idx]); err != nil {
			return err
		}
	}
	return nil
}

// digraphFamilySide mirrors familySide for directed families: a family
// that must build an instance to learn its partition surfaces the build
// error through AliceSideChecked.
func digraphFamilySide(fam lbfamily.DigraphFamily) ([]bool, error) {
	if checked, ok := fam.(interface{ AliceSideChecked() ([]bool, error) }); ok {
		return checked.AliceSideChecked()
	}
	return fam.AliceSide(), nil
}
