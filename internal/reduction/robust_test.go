package reduction

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// retryConfig returns a certification config sized for collect-retry on
// fam: the bandwidth carries the three ARQ header bits and the round
// guard admits the retry budget.
func retryConfig(t *testing.T, fam lbfamily.Family[*graph.Graph], cfg Config) Config {
	t.Helper()
	stats, err := lbfamily.MeasureStats(fam)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Bandwidth = algorithms.CollectRetryMinBandwidth(stats.N)
	cfg.MaxRounds = algorithms.CollectRetryRoundsCap(stats.N)
	return cfg
}

func TestCertifyCollectRetryExactUnderDrops(t *testing.T) {
	// The headline robustness claim: under a seeded 1% drop plan the
	// retransmitting collect still decides the MDS predicate exactly on
	// all 256 exhaustive pairs — the same zero-mismatch certification the
	// fault-free collect produces.
	fam := mdsFam(t)
	cfg := retryConfig(t, fam, Config{
		Seed:   7,
		Faults: &faults.Plan{Seed: 7, DropProb: 0.01},
	})
	rep, err := Certify(fam, CollectRetryMDS(fam), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhaustive || len(rep.Pairs) != 256 {
		t.Fatalf("exhaustive=%v pairs=%d, want true/256", rep.Exhaustive, len(rep.Pairs))
	}
	if rep.Mismatches != 0 {
		t.Errorf("collect-retry misdecided %d pairs under 1%% drops", rep.Mismatches)
	}
	if rep.Completed != 256 || rep.Total != 256 {
		t.Errorf("Completed/Total = %d/%d, want 256/256", rep.Completed, rep.Total)
	}

	// Seeded replay: the same plan and config reproduce the report
	// measurement-for-measurement.
	again, err := Certify(fam, CollectRetryMDS(fam), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Pairs {
		a, b := rep.Pairs[i], again.Pairs[i]
		if a.Rounds != b.Rounds || a.Messages != b.Messages || a.CutBits != b.CutBits || a.Output != b.Output {
			t.Fatalf("pair %d not replay-stable:\n  first  %+v\n  second %+v", i, a, b)
		}
	}
}

func TestCertifyPlainCollectDegradesUnderDrops(t *testing.T) {
	// The contrast motivating collect-retry: the plain pipelined collect
	// has no retransmission, so under a substantial drop rate some runs
	// lose records — the certification either misdecides pairs or fails
	// outright (roots disagreeing, streams desynchronized).
	fam := mdsFam(t)
	rep, err := Certify(fam, CollectMDS(fam), Config{
		Seed:   3,
		Pairs:  16,
		Faults: &faults.Plan{Seed: 3, DropProb: 0.3},
	})
	if err == nil && rep.Mismatches == 0 {
		t.Error("plain collect certified exactly at 30% drops; the contrast fixture no longer discriminates")
	}
}

func TestCertifyTranscriptChecksUnderFaults(t *testing.T) {
	// The Theorem 1.1 simulation-invariant check must keep passing when a
	// fault plan is active: injection is seeded per (round, link), so the
	// transcript replay sees the identical delivery schedule.
	fam := mdsFam(t)
	cfg := retryConfig(t, fam, Config{
		Seed:             5,
		Pairs:            4,
		TranscriptChecks: 2,
		Faults:           &faults.Plan{Seed: 11, DropProb: 0.05},
	})
	rep, err := Certify(fam, CollectRetryMDS(fam), cfg)
	if err != nil {
		t.Fatalf("transcript check under faults failed: %v", err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("collect-retry misdecided %d pairs under 5%% drops", rep.Mismatches)
	}
}

// cancelAfterPrepares wraps alg so that cancel fires during the n-th
// per-pair Prepare call, making the cancellation point deterministic.
func cancelAfterPrepares(alg AlgorithmOf[*graph.Graph], n int, cancel context.CancelFunc) AlgorithmOf[*graph.Graph] {
	inner := alg.Prepare
	calls := 0
	alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
		calls++
		if calls == n {
			cancel()
		}
		return inner(g, bandwidth, seed)
	}
	return alg
}

func TestCertifyCtxCancelReturnsPartialReport(t *testing.T) {
	fam := mdsFam(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel during pair 5's Prepare: that pair still completes (the
	// context is checked at step entry), pair 6 does not start. The
	// Serial walk makes the cancellation point exact; the sharded
	// equivalent (with relaxed pair-set assertions) lives in
	// TestCertifyShardedCancelMidSweep.
	alg := cancelAfterPrepares(CollectMDS(fam), 5, cancel)
	rep, err := CertifyCtx(ctx, fam, alg, Config{Seed: 1, Serial: true})

	var cerr *lbfamily.CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("CertifyCtx returned %v, want *lbfamily.CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("CancelledError does not unwrap to context.Canceled")
	}
	if rep == nil {
		t.Fatal("cancelled sweep returned no partial report")
	}
	if rep.Completed != 5 || cerr.Completed != 5 {
		t.Errorf("Completed = %d (error says %d), want 5", rep.Completed, cerr.Completed)
	}
	if rep.Total != 256 || cerr.Total != 256 {
		t.Errorf("Total = %d (error says %d), want 256", rep.Total, cerr.Total)
	}
	if len(rep.Pairs) != rep.Completed {
		t.Errorf("partial report has %d pairs for %d completed", len(rep.Pairs), rep.Completed)
	}
	for i, p := range rep.Pairs {
		if !p.Correct {
			t.Errorf("completed pair %d not certified correct: %+v", i, p)
		}
	}
	if rep.Mismatches != 0 || rep.SimBits <= 0 {
		t.Errorf("partial report not finalized: mismatches=%d simBits=%d", rep.Mismatches, rep.SimBits)
	}
}

func TestCertifyCtxAlreadyCancelled(t *testing.T) {
	fam := mdsFam(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := CertifyCtx(ctx, fam, CollectMDS(fam), Config{Seed: 1})
	var cerr *lbfamily.CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("dead context returned %v, want *lbfamily.CancelledError", err)
	}
	if cerr.Completed != 0 {
		t.Errorf("Completed = %d before any work, want 0", cerr.Completed)
	}
	if rep == nil || len(rep.Pairs) != 0 {
		t.Errorf("want an empty partial report, got %+v", rep)
	}
}

func TestCertifyPanicNamesPairAndReturnsPartialReport(t *testing.T) {
	fam := mdsFam(t)
	alg := CollectMDS(fam)
	inner := alg.Prepare
	calls := 0
	alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
		calls++
		if calls == 7 {
			panic("prepare exploded")
		}
		return inner(g, bandwidth, seed)
	}
	// Serial pins the panic to the 7th pair of the walk; the sharded
	// twin is TestCertifyShardedPanicNamesCanonicalFirstPair.
	rep, err := Certify(fam, alg, Config{Seed: 1, Serial: true})

	var perr *lbfamily.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("Certify returned %v, want *lbfamily.PanicError", err)
	}
	if perr.X.Len() == 0 || perr.Y.Len() == 0 {
		t.Error("PanicError does not name the (x, y) pair")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "prepare exploded") {
		t.Errorf("error %q does not describe the panic", err)
	}
	if len(perr.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if rep == nil {
		t.Fatal("panicked sweep returned no partial report")
	}
	if rep.Completed != 6 || len(rep.Pairs) != 6 {
		t.Errorf("Completed=%d pairs=%d, want the 6 pairs before the panic", rep.Completed, len(rep.Pairs))
	}
}

func TestCertifyDigraphCtxCancelReturnsPartialReport(t *testing.T) {
	fam := hamFam(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	alg := CollectHamPath(fam)
	inner := alg.Prepare
	calls := 0
	alg.Prepare = func(d *graph.Digraph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
		calls++
		if calls == 4 {
			cancel()
		}
		return inner(d, bandwidth, seed)
	}
	rep, err := CertifyCtx(ctx, fam, alg, Config{Seed: 1, Serial: true})

	var cerr *lbfamily.CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("CertifyCtx returned %v, want *lbfamily.CancelledError", err)
	}
	if rep == nil || rep.Completed != 4 || len(rep.Pairs) != 4 || rep.Total != 256 {
		t.Fatalf("partial digraph report wrong: %+v (err %v)", rep, err)
	}
	for i, p := range rep.Pairs {
		if !p.Correct {
			t.Errorf("completed pair %d not certified correct: %+v", i, p)
		}
	}
}

func TestCertifyDigraphFaultsReplayStable(t *testing.T) {
	// The directed engine accepts the same fault plans, and a seeded plan
	// replays bit-identically: whatever a drop plan does to the plain
	// (non-retransmitting) collect — degraded decisions or an outright
	// run failure — it does identically on every run.
	fam := hamFam(t)
	run := func() (*Report, error) {
		return Certify(fam, CollectHamPath(fam), Config{
			Seed:   9,
			Pairs:  8,
			Faults: &faults.Plan{Seed: 4, DropProb: 0.02},
		})
	}
	repA, errA := run()
	repB, errB := run()
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("fault replay diverged:\n  first  %v\n  second %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if len(repA.Pairs) != len(repB.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(repA.Pairs), len(repB.Pairs))
	}
	for i := range repA.Pairs {
		if repA.Pairs[i].Rounds != repB.Pairs[i].Rounds || repA.Pairs[i].Messages != repB.Pairs[i].Messages ||
			repA.Pairs[i].Output != repB.Pairs[i].Output {
			t.Errorf("pair %d not replay-stable under faults", i)
		}
	}
}
