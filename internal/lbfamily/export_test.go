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

// CollectOutcomesForTest runs verification phase 1 over xs × ys — in
// delta-with-fallback mode (forceRebuild = false) or forced rebuild mode —
// and returns the row-major outcomes plus whether the delta path produced
// them.
func CollectOutcomesForTest[G Instance](fam Family[G], xs, ys []comm.Bits, forceRebuild bool) ([]OutcomeForTest, bool, error) {
	side, err := AliceSide(fam)
	if err != nil {
		return nil, false, err
	}
	outcomes, status, delta := collectOutcomes(context.Background(), fam, side, xs, ys, forceRebuild)
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

// VerifyRebuild is Verify with the delta path disabled; differential tests
// compare its first error byte for byte against the delta path's.
func VerifyRebuild[G Instance](fam Family[G]) error {
	return verifyExhaustive(context.Background(), fam, true)
}
