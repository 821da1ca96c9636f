package reduction

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"congesthard/internal/comm"
	"congesthard/internal/lbfamily"
)

// This file is the sharded certify sweep core shared by CertifyCtx and
// CertifyDigraphCtx: the lbfamily.VerifyDigraph recipe (Gray-code column
// sharding, worker-private delta instances, atomic first-error selection)
// applied to certification. The pair list produced by certifyPairs is
// already laid out in column-major Gray order — pairs idx in
// [c*colLen, (c+1)*colLen) share y = gray(c) with x walking the reflected
// Gray code — so a "column" is simply a contiguous index block and the
// serial walk order equals the list order. Workers claim columns from an
// atomic counter and certify each claimed pair on a worker-private
// instance; per-pair seeds are keyed by list index (pairSeed), so the
// sharded and serial sweeps produce bit-identical reports.

// sweepOutcome is one pair's terminal state in the sharded sweep.
type sweepOutcome struct {
	// ok marks a certified pair: report.Pairs[idx] is valid.
	ok bool
	// err is the pair's failure: a wrapped build/prepare/run/decide error,
	// a delta-apply error, or a confined *lbfamily.PanicError.
	err error
}

// sweepPlan is a sharded certification sweep over one graph kind
// (G = *graph.Graph or *graph.Digraph). Exactly one of instances (the
// DeltaFamily incremental path: one worker-private mutable instance per
// worker plus the family's ApplyBit) or build (the rebuild fallback:
// every pair built from scratch) is set.
type sweepPlan[G any] struct {
	xs, ys []comm.Bits
	k      int
	// colLen is the pairs-per-column claim granularity: 2^k for the
	// exhaustive cube (one fixed-y Gray column per claim), 1 for sampled
	// pair lists (each sample is its own claim; applyDiff absorbs the
	// arbitrary Hamming jump between consecutive samples).
	colLen  int
	workers int

	instances []G
	applyBit  func(g G, player, bit int, val bool) error
	build     func(x, y comm.Bits) (G, error)

	// run certifies pair idx on g and fills report.Pairs[idx]; worker is
	// the claiming worker's id, used to select per-worker arenas.
	run func(worker, idx int, g G, x, y comm.Bits) error
	// progress, if non-nil, observes completed counts; calls are
	// serialized and the completed argument is strictly increasing.
	progress func(completed, total int)
}

// sweepWorkers returns the worker count for a sweep of the given column
// count: cfg.Workers when positive, else GOMAXPROCS, capped at one worker
// per column.
func sweepWorkers(cfg Config, cols int) int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cols {
		w = cols
	}
	if w < 1 {
		w = 1
	}
	return w
}

// execute runs the sweep across the plan's workers and returns the
// outcome table. Cancellation stops workers from claiming new pairs;
// in-flight pairs finish, so every recorded outcome is fully computed.
func (p *sweepPlan[G]) execute(ctx context.Context) []sweepOutcome {
	total := len(p.xs)
	outcomes := make([]sweepOutcome, total)
	if total == 0 {
		return outcomes
	}
	cols := (total + p.colLen - 1) / p.colLen
	var nextCol, minErr atomic.Int64
	minErr.Store(int64(total))

	// The Progress hook contract: serialized calls, strictly increasing
	// completed counts. The mutex covers both the increment and the call.
	var mu sync.Mutex
	completed := 0
	bump := func() {
		if p.progress == nil {
			return
		}
		mu.Lock()
		completed++
		p.progress(completed, total)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.worker(ctx, w, cols, outcomes, &nextCol, &minErr, bump)
		}(w)
	}
	wg.Wait()
	return outcomes
}

// worker claims columns until none remain or ctx fires. A failed pair
// lowers minErr; pairs later in list order than the earliest failure are
// skipped (their outcomes stay zero), which matches the serial walk —
// it never ran past its first error either. Delta instances still apply
// the skipped pairs' diffs so the instance stays in step with the walk.
func (p *sweepPlan[G]) worker(ctx context.Context, w, cols int, outcomes []sweepOutcome, nextCol, minErr *atomic.Int64, bump func()) {
	var g G
	var curX, curY comm.Bits
	delta := p.instances != nil
	if delta {
		g = p.instances[w]
		curX, curY = comm.NewBits(p.k), comm.NewBits(p.k)
	}
	applyDiff := func(player int, cur, target comm.Bits) error {
		var applyErr error
		cur.ForEachDiff(target, func(i int) bool {
			if err := p.applyBit(g, player, i, target.Get(i)); err != nil {
				applyErr = err
				return false
			}
			cur.Set(i, target.Get(i))
			return true
		})
		return applyErr
	}
	for {
		if ctx.Err() != nil {
			return
		}
		c := int(nextCol.Add(1) - 1)
		if c >= cols {
			return
		}
		end := (c + 1) * p.colLen
		if end > len(p.xs) {
			end = len(p.xs)
		}
		for idx := c * p.colLen; idx < end; idx++ {
			if ctx.Err() != nil {
				return
			}
			x, y := p.xs[idx], p.ys[idx]
			if delta {
				// A delta-apply failure leaves this worker's instance out
				// of sync, so the worker stops; other workers' instances
				// are unaffected and every pair earlier in list order
				// still completes (the rest of this column is later).
				if err := applyDiff(lbfamily.PlayerY, curY, y); err != nil {
					outcomes[idx] = sweepOutcome{err: fmt.Errorf("delta apply y at (%s,%s): %w", x, y, err)}
					storeMinIdx(minErr, int64(idx))
					return
				}
				if err := applyDiff(lbfamily.PlayerX, curX, x); err != nil {
					outcomes[idx] = sweepOutcome{err: fmt.Errorf("delta apply x at (%s,%s): %w", x, y, err)}
					storeMinIdx(minErr, int64(idx))
					return
				}
			}
			if int64(idx) > minErr.Load() {
				continue // a pair earlier in list order already failed
			}
			inst := g
			if !delta {
				b, err := p.build(x, y)
				if err != nil {
					outcomes[idx] = sweepOutcome{err: fmt.Errorf("build (%s,%s): %w", x, y, err)}
					storeMinIdx(minErr, int64(idx))
					continue
				}
				inst = b
			}
			err := safeStep(func() error { return p.run(w, idx, inst, x, y) }, x, y)
			outcomes[idx] = sweepOutcome{ok: err == nil, err: err}
			if err != nil {
				storeMinIdx(minErr, int64(idx))
				continue
			}
			bump()
		}
	}
}

// resolveSweep converts the outcome table into the historical
// report/error contract shared with the serial walk:
//
//   - every pair certified → the finalized complete report;
//   - an earliest failure whose predecessors all completed → exactly the
//     serial result: a *lbfamily.PanicError with the report truncated to
//     the pairs before it, or (for a plain error) the error alone with no
//     report — later pairs that happened to finish are discarded, as the
//     serial walk would never have run them;
//   - a cancelled sweep → the certified pairs compacted in list order
//     plus a *lbfamily.CancelledError whose Completed matches len(Pairs).
//     Cancellation takes precedence when the earliest failure's
//     predecessors are incomplete (the serial-identical truncation is
//     unavailable), and a sweep that finished every pair before the
//     context fired is complete, not cancelled.
func resolveSweep(report *Report, outcomes []sweepOutcome, ctxErr error, f comm.Function) (*Report, error) {
	firstErr := -1
	for idx := range outcomes {
		if outcomes[idx].err != nil {
			firstErr = idx
			break
		}
	}
	if firstErr >= 0 {
		prefix := true
		for idx := 0; idx < firstErr; idx++ {
			if !outcomes[idx].ok {
				prefix = false
				break
			}
		}
		if prefix || ctxErr == nil {
			err := outcomes[firstErr].err
			var perr *lbfamily.PanicError
			if !errors.As(err, &perr) {
				return nil, err
			}
			report.Pairs = report.Pairs[:firstErr]
			report.Completed = firstErr
			report.finalize(f)
			return report, err
		}
	}
	done := 0
	for idx := range outcomes {
		if outcomes[idx].ok {
			report.Pairs[done] = report.Pairs[idx]
			done++
		}
	}
	if ctxErr != nil && done < report.Total {
		report.Pairs = report.Pairs[:done]
		report.Completed = done
		report.finalize(f)
		return report, &lbfamily.CancelledError{Completed: done, Total: report.Total, Err: ctxErr}
	}
	report.Completed = done
	report.finalize(f)
	return report, report.checkBound()
}

// storeMinIdx lowers m to idx if idx is smaller — the first-error CAS
// shared with the lbfamily verifiers.
func storeMinIdx(m *atomic.Int64, idx int64) {
	for {
		cur := m.Load()
		if idx >= cur || m.CompareAndSwap(cur, idx) {
			return
		}
	}
}
