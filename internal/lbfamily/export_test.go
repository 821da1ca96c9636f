package lbfamily

import (
	"context"

	"congesthard/internal/comm"
)

// OutcomeForTest is the exported projection of a pairOutcome, so external
// differential tests can compare the delta and rebuild phase-1 paths
// pair for pair.
type OutcomeForTest struct {
	N                     int
	CutHash, AHash, BHash uint64
	Got                   bool
	BuildErr, PredErr     error
}

// collectOutcomesForTest runs verification phase 1 over xs × ys — in
// delta-with-fallback mode (forceRebuild = false) or forced rebuild mode —
// and returns the row-major outcomes plus whether the delta path produced
// them.
func collectOutcomesForTest[G Instance](s Surface[G], xs, ys []comm.Bits, forceRebuild bool) ([]OutcomeForTest, bool, error) {
	side, err := s.Side()
	if err != nil {
		return nil, false, err
	}
	outcomes, status, delta := collectOutcomes(context.Background(), s, side, xs, ys, forceRebuild)
	views := make([]OutcomeForTest, len(outcomes))
	for i, o := range outcomes {
		views[i] = OutcomeForTest{N: o.n, CutHash: o.h.Cut, AHash: o.h.A, BHash: o.h.B, Got: o.got}
		if be, ok := status[i].Err.(*BuildError); ok {
			views[i].BuildErr = be.Err
		} else if status[i].Err != errVertexCount {
			views[i].PredErr = status[i].Err
		}
	}
	return views, delta, nil
}

// CollectOutcomesForTest is phase 1 for an undirected family.
func CollectOutcomesForTest(fam Family, xs, ys []comm.Bits, forceRebuild bool) ([]OutcomeForTest, bool, error) {
	return collectOutcomesForTest(Undirected(fam), xs, ys, forceRebuild)
}

// CollectDigraphOutcomesForTest is phase 1 for a directed family.
func CollectDigraphOutcomesForTest(fam DigraphFamily, xs, ys []comm.Bits, forceRebuild bool) ([]OutcomeForTest, bool, error) {
	return collectOutcomesForTest(Directed(fam), xs, ys, forceRebuild)
}

// VerifyRebuild is Verify with the delta path disabled; differential tests
// compare its first error byte for byte against the delta path's.
func VerifyRebuild(fam Family) error {
	return verifyExhaustive(context.Background(), Undirected(fam), true)
}

// VerifyDigraphRebuild is VerifyDigraph with the delta path disabled.
func VerifyDigraphRebuild(fam DigraphFamily) error {
	return verifyExhaustive(context.Background(), Directed(fam), true)
}
