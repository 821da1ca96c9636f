package reduction

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

func mdsFam(t *testing.T) *mdslb.Family {
	t.Helper()
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestCertifyCollectMDSExhaustive(t *testing.T) {
	fam := mdsFam(t)
	rep, err := Certify(fam, CollectMDS(fam), Config{Seed: 1})
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
		t.Errorf("CC bound %v, want CC(DISJ) = K = 4", rep.CCBound)
	}
	if rep.SimBits < int64(rep.CCBound) {
		t.Errorf("simulation budget %d below CC(f) = %v: the lower bound would be violated", rep.SimBits, rep.CCBound)
	}
}

func TestCertifyDeltaMatchesRebuild(t *testing.T) {
	// The DeltaFamily incremental instance walk must produce pair-for-pair
	// identical measurements to independent per-pair rebuilds.
	fam := mdsFam(t)
	alg := CollectMDS(fam)
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

func TestCertifyFlagsApproximateBaselines(t *testing.T) {
	fam := mdsFam(t)
	rep, err := Certify(fam, GreedyMDS(fam), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact {
		t.Error("greedy claims exactness")
	}
	if rep.Mismatches == 0 {
		t.Error("greedy MDS decided every pair correctly — the approximate baseline is not being flagged")
	}
	for _, p := range rep.Pairs {
		// The greedy set is a valid dominating set, so it can only
		// overshoot: a "yes" answer is always sound, mistakes are
		// one-sided "no"s on yes-instances.
		if p.Output && !p.Want {
			t.Errorf("greedy answered yes on the no-instance (%s,%s)", p.X, p.Y)
		}
	}

	mvc, err := mvclb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	mrep, err := Certify(mvc, MatchingMVC(mvc), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Mismatches == 0 {
		t.Error("matching VC decided every pair correctly — the 2-approximation is not being flagged")
	}
}

func TestCertifySampledMaxCut(t *testing.T) {
	fam, err := maxcutlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SampledMaxCut(fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Certify(fam, exact, Config{Seed: 2, Pairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive {
		t.Error("sampled config reported exhaustive")
	}
	if rep.Mismatches != 0 {
		t.Errorf("p=1 sampling is exact collection but misdecided %d pairs", rep.Mismatches)
	}
	sampled, err := SampledMaxCut(fam, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := Certify(fam, sampled, Config{Seed: 2, Pairs: 24})
	if err != nil {
		t.Fatal(err)
	}
	if srep.Mismatches == 0 {
		t.Error("p=0.5 sampling decided every pair correctly — sampling noise is not being flagged")
	}
	if _, err := SampledMaxCut(fam, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestCertifySampledPairsDedupAndCorners(t *testing.T) {
	fam := mdsFam(t)
	rep, err := Certify(fam, CollectMDS(fam), Config{Seed: 3, Pairs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) > 12 {
		t.Errorf("%d pairs for Pairs=12", len(rep.Pairs))
	}
	seen := map[string]bool{}
	zero, ones := comm.NewBits(4).String(), comm.OnesBits(4).String()
	foundZero, foundOnes := false, false
	for _, p := range rep.Pairs {
		key := p.X.String() + "|" + p.Y.String()
		if seen[key] {
			t.Errorf("duplicate sampled pair %s", key)
		}
		seen[key] = true
		if p.X.String() == zero && p.Y.String() == zero {
			foundZero = true
		}
		if p.X.String() == ones && p.Y.String() == ones {
			foundOnes = true
		}
	}
	if !foundZero || !foundOnes {
		t.Error("corner pairs missing from the sample")
	}
}

func TestCertifyTranscriptChecks(t *testing.T) {
	// The Theorem 1.1 simulation-invariant spot check must pass on real
	// pairings (deterministic programs replay exactly).
	fam := mdsFam(t)
	if _, err := Certify(fam, CollectMDS(fam), Config{Seed: 4, Pairs: 6, TranscriptChecks: 3}); err != nil {
		t.Errorf("collect transcript check failed: %v", err)
	}
	mvc, err := mvclb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Certify(mvc, MatchingMVC(mvc), Config{Seed: 4, Pairs: 6, TranscriptChecks: 3}); err != nil {
		t.Errorf("matching transcript check failed: %v", err)
	}
}

func TestCertifyExhaustiveRequiresSmallK(t *testing.T) {
	fam, err := mdslb.New(4) // K = 16
	if err != nil {
		t.Fatal(err)
	}
	_, err = Certify(fam, CollectMDS(fam), Config{})
	if err == nil || !strings.Contains(err.Error(), "K <= 8") {
		t.Errorf("K=16 exhaustive certification accepted: %v", err)
	}
	if _, err := Certify(fam, CollectMDS(fam), Config{Pairs: 3, Seed: 9}); err != nil {
		t.Errorf("sampled certification at K=16 failed: %v", err)
	}
}

// TestCertifyRejectsNegativeCounts: a negative Pairs used to run the
// exhaustive sweep, and a negative Workers was taken as GOMAXPROCS; both
// are configuration errors, raised before any pair runs, serial or not.
func TestCertifyRejectsNegativeCounts(t *testing.T) {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Pairs: -3}, "negative pair count -3"},
		{Config{Pairs: -1, Serial: true}, "negative pair count -1"},
		{Config{Workers: -2}, "negative worker count -2"},
		{Config{Pairs: 4, Workers: -1, Serial: true}, "negative worker count -1"},
	} {
		ran := false
		alg := CollectMDS(fam)
		prepare := alg.Prepare
		alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
			ran = true
			return prepare(g, bandwidth, seed)
		}
		rep, err := Certify(fam, alg, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) || rep != nil || ran {
			t.Errorf("%+v: report %v, err %v, ran a pair %v; want no report and an error naming %q", c.cfg, rep, err, ran, c.want)
		}
	}
}

func TestCheckBoundFlagsTheorem11Violations(t *testing.T) {
	violating := Report{Family: "mds", Algorithm: "collect", Exact: true, Exhaustive: true, SimBits: 10, CCBound: 16}
	err := violating.checkBound()
	var bv *BoundViolationError
	if !errors.As(err, &bv) {
		t.Fatalf("checkBound = %v, want *BoundViolationError", err)
	}
	if bv.SimBits != 10 || bv.CCBound != 16 || bv.Family != "mds" || bv.Algorithm != "collect" {
		t.Errorf("violation carries %+v", *bv)
	}
	// The theorem speaks only about exact, exhaustive, mismatch-free
	// reports; a budget at or above CC(f) is fine.
	for name, mutate := range map[string]func(r *Report){
		"within budget": func(r *Report) { r.SimBits = 16 },
		"approximate":   func(r *Report) { r.Exact = false },
		"sampled":       func(r *Report) { r.Exhaustive = false },
		"mismatches":    func(r *Report) { r.Mismatches = 1 },
		"unknown CC":    func(r *Report) { r.CCBound = 0 },
	} {
		r := violating
		mutate(&r)
		if err := r.checkBound(); err != nil {
			t.Errorf("%s: checkBound = %v, want nil", name, err)
		}
	}
}

// shortSide truncates a family's Alice side to three entries.
type shortSide[G lbfamily.Instance] struct{ lbfamily.Family[G] }

func (s shortSide[G]) AliceSide() []bool { return s.Family.AliceSide()[:3] }

// checkShortSide asserts that Certify, MeasureStats and Verify reject a
// wrong-length Alice side with the same error instead of cutting with it.
func checkShortSide[G lbfamily.Instance](t *testing.T, fam lbfamily.Family[G], alg AlgorithmOf[G]) {
	t.Helper()
	zero := comm.NewBits(fam.K())
	g, err := fam.Build(zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("AliceSide has 3 entries for %d vertices", g.N())
	short := shortSide[G]{fam}
	if _, err := Certify[G](short, alg, Config{Pairs: 2}); err == nil || err.Error() != want {
		t.Errorf("Certify: err = %v, want %q", err, want)
	}
	if _, err := lbfamily.MeasureStats[G](short); err == nil || err.Error() != want {
		t.Errorf("MeasureStats: err = %v, want %q", err, want)
	}
	if err := lbfamily.Verify[G](short); err == nil || err.Error() != want {
		t.Errorf("Verify: err = %v, want %q", err, want)
	}
}

func TestWrongLengthAliceSideIsAnError(t *testing.T) {
	mds := mdsFam(t)
	checkShortSide[*graph.Graph](t, mds, CollectMDS(mds))
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	checkShortSide[*graph.Digraph](t, ham, CollectHamPath(ham))
}
