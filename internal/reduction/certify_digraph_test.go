package reduction

import (
	"strings"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
)

func hamFam(t *testing.T) *hamlb.Family {
	t.Helper()
	fam, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestCertifyDigraphCollectHamPathExhaustive(t *testing.T) {
	fam := hamFam(t)
	rep, err := Certify(fam, CollectHamPath(fam), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhaustive || len(rep.Pairs) != 256 {
		t.Fatalf("exhaustive=%v pairs=%d, want true/256", rep.Exhaustive, len(rep.Pairs))
	}
	if rep.Mismatches != 0 {
		t.Errorf("exact collect misdecided %d pairs", rep.Mismatches)
	}
	sawYes, sawNo := false, false
	for _, p := range rep.Pairs {
		if !p.Correct || p.Output != p.Want {
			t.Fatalf("pair (%s,%s) inconsistent: %+v", p.X, p.Y, p)
		}
		if p.Want != p.X.Intersects(p.Y) {
			t.Fatalf("want at (%s,%s) is not ¬DISJ", p.X, p.Y)
		}
		if p.CutBits <= 0 || p.CutMessages <= 0 {
			t.Errorf("pair (%s,%s) crossed no cut traffic", p.X, p.Y)
		}
		if p.CutBits > 2*int64(p.Rounds)*int64(rep.Bandwidth)*int64(rep.Stats.CutSize) {
			t.Errorf("pair (%s,%s) violates the Theorem 1.1 bound", p.X, p.Y)
		}
		if p.Want {
			sawYes = true
		} else {
			sawNo = true
		}
	}
	if !sawYes || !sawNo {
		t.Error("exhaustive cube must contain both yes and no instances")
	}
	if rep.CCBound != 4 {
		t.Errorf("CC bound %v, want CC(¬DISJ) = K = 4", rep.CCBound)
	}
	if rep.SimBits < int64(rep.CCBound) {
		t.Errorf("simulation budget %d below CC(f) = %v: the lower bound would be violated", rep.SimBits, rep.CCBound)
	}
}

func TestCertifyDigraphDeltaMatchesRebuild(t *testing.T) {
	// The DeltaFamilyOf incremental walk (one mutable digraph, arc
	// toggles between Gray-adjacent pairs, spliced patchable snapshot)
	// must produce pair-for-pair identical measurements to independent
	// per-pair rebuilds.
	fam := hamFam(t)
	alg := CollectHamPath(fam)
	delta, err := Certify(fam, alg, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := Certify(fam, alg, Config{Seed: 5, ForceRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Pairs) != len(rebuild.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(delta.Pairs), len(rebuild.Pairs))
	}
	for i := range delta.Pairs {
		d, r := delta.Pairs[i], rebuild.Pairs[i]
		if !d.X.Equal(r.X) || !d.Y.Equal(r.Y) {
			t.Fatalf("pair %d inputs differ: (%s,%s) vs (%s,%s)", i, d.X, d.Y, r.X, r.Y)
		}
		if d.Rounds != r.Rounds || d.Messages != r.Messages ||
			d.CutMessages != r.CutMessages || d.CutBits != r.CutBits ||
			d.Output != r.Output || d.Want != r.Want {
			t.Errorf("pair %d (%s,%s) differs between delta and rebuild:\n  delta   %+v\n  rebuild %+v", i, d.X, d.Y, d, r)
		}
	}
}

func TestCertifyDigraphFlagsGreedyPath(t *testing.T) {
	fam := hamFam(t)
	rep, err := Certify(fam, GreedyHamPath(fam), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact {
		t.Error("greedy-path claims exactness")
	}
	if rep.Mismatches == 0 {
		t.Error("greedy path walk decided every pair correctly — the heuristic is not being flagged")
	}
	for _, p := range rep.Pairs {
		// A walk that covers everything and ends at end IS a Hamiltonian
		// path, so mistakes are one-sided "no"s on yes-instances.
		if p.Output && !p.Want {
			t.Errorf("greedy-path answered yes on the no-instance (%s,%s)", p.X, p.Y)
		}
	}
}

func dirSteinerFam(t *testing.T) *kmdslb.DirSteinerFamily {
	t.Helper()
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := kmdslb.NewDirSteiner(kmdslb.Params{Collection: c, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestCertifyDigraphDirSteiner(t *testing.T) {
	// The directed Steiner collect pairing exercises the weight chunks of
	// the arc frames (0- and alpha-weighted arcs) end to end.
	fam := dirSteinerFam(t)
	rep, err := Certify(fam, CollectDirSteiner(fam), Config{Seed: 2, Pairs: 12, TranscriptChecks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive {
		t.Error("sampled config reported exhaustive")
	}
	if rep.Mismatches != 0 {
		t.Errorf("exact dir-steiner collect misdecided %d pairs", rep.Mismatches)
	}
	for _, p := range rep.Pairs {
		if p.CutBits <= 0 {
			t.Errorf("pair (%s,%s) crossed no cut traffic", p.X, p.Y)
		}
	}
}

func TestCertifyDigraphTranscriptChecks(t *testing.T) {
	// The directed simulation-invariant spot check must pass on the real
	// pairings (deterministic programs replay exactly).
	fam := hamFam(t)
	if _, err := Certify(fam, CollectHamPath(fam), Config{Seed: 4, Pairs: 6, TranscriptChecks: 3}); err != nil {
		t.Errorf("collect transcript check failed: %v", err)
	}
	if _, err := Certify(fam, GreedyHamPath(fam), Config{Seed: 4, Pairs: 6, TranscriptChecks: 3}); err != nil {
		t.Errorf("greedy-path transcript check failed: %v", err)
	}
}

func TestCertifyDigraphExhaustiveRequiresSmallK(t *testing.T) {
	fam, err := hamlb.New(4) // K = 16
	if err != nil {
		t.Fatal(err)
	}
	_, err = Certify(fam, CollectHamPath(fam), Config{})
	if err == nil || !strings.Contains(err.Error(), "K <= 8") ||
		!strings.Contains(err.Error(), "sampled certification") {
		t.Errorf("K=16 exhaustive certification accepted or error does not name the sampled alternative: %v", err)
	}
}

func TestVerifyDigraphSimulationEmptyCut(t *testing.T) {
	// A bipartition with zero crossing arcs yields an empty transcript but
	// the simulation invariant still certifies (shared Meter edge case).
	d := graph.NewDigraph(4)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 2)
	d.MustAddArc(2, 3)
	factory := func(local congest.Local) congest.Node {
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				if round > 1 {
					return nil, true
				}
				out := make([]congest.Message, 0, len(local.Neighbors))
				for _, nbr := range local.Neighbors {
					out = append(out, congest.Message{To: nbr, Payload: int64(local.ID)})
				}
				return out, round == 1
			},
			OutputFunc: func() interface{} { return local.ID },
		}
	}
	for _, alice := range []bool{false, true} {
		side := make([]bool, 4)
		for v := range side {
			side[v] = alice
		}
		transcript, res, err := VerifySimulation(d, side, factory, congest.Options{})
		if err != nil {
			t.Fatalf("alice=%v: %v", alice, err)
		}
		if len(transcript.Entries) != 0 || transcript.Bits() != 0 {
			t.Errorf("alice=%v: empty cut produced a non-empty transcript: %d entries", alice, len(transcript.Entries))
		}
		if res.CutBits != 0 {
			t.Errorf("alice=%v: empty cut metered %d bits", alice, res.CutBits)
		}
	}
}
