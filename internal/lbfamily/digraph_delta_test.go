package lbfamily_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

func digraphDeltaFamilies(t *testing.T) []lbfamily.Family[*graph.Digraph] {
	t.Helper()
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := kmdslb.NewDirSteiner(kmdslb.Params{Collection: c, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	return []lbfamily.Family[*graph.Digraph]{ham, dir}
}

// TestDigraphDeltaMatchesRebuildPairForPair is the differential contract
// of the directed incremental verifier: for every opted-in directed
// family, the Gray-code delta walk and the rebuild-from-scratch path must
// agree on every pair's structural hashes and predicate verdict.
func TestDigraphDeltaMatchesRebuildPairForPair(t *testing.T) {
	for _, fam := range digraphDeltaFamilies(t) {
		fam := fam
		t.Run(fam.Name(), func(t *testing.T) {
			if _, ok := fam.(lbfamily.DeltaFamilyOf[*graph.Digraph]); !ok {
				t.Fatal("family does not implement DeltaFamilyOf")
			}
			xs := allInputs(t, fam.K())
			got, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, false)
			if err != nil {
				t.Fatal(err)
			}
			if !usedDelta {
				t.Fatal("delta path fell back to rebuild")
			}
			want, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, true)
			if err != nil {
				t.Fatal(err)
			}
			if usedDelta {
				t.Fatal("forced rebuild still used the delta path")
			}
			for i := range want {
				x, y := xs[i/len(xs)], xs[i%len(xs)]
				g, w := got[i], want[i]
				if g.BuildErr != nil || w.BuildErr != nil || g.PredErr != nil || w.PredErr != nil {
					t.Fatalf("(%s,%s): unexpected errors %v %v %v %v", x, y, g.BuildErr, w.BuildErr, g.PredErr, w.PredErr)
				}
				if g.N != w.N {
					t.Fatalf("(%s,%s): n = %d, rebuild %d", x, y, g.N, w.N)
				}
				if g.CutHash != w.CutHash || g.AHash != w.AHash || g.BHash != w.BHash {
					t.Fatalf("(%s,%s): hashes diverge: delta (%x,%x,%x) rebuild (%x,%x,%x)",
						x, y, g.CutHash, g.AHash, g.BHash, w.CutHash, w.AHash, w.BHash)
				}
				if g.Got != w.Got {
					t.Fatalf("(%s,%s): predicate verdict %v, rebuild %v", x, y, g.Got, w.Got)
				}
			}
		})
	}
}

// condition4BrokenDigraph claims the Hamiltonian path family reduces from
// DISJ instead of ¬DISJ while keeping the delta surface (promoted from
// the embedded family) perfectly consistent with Build.
type condition4BrokenDigraph struct {
	*hamlb.Family
}

func (condition4BrokenDigraph) Func() comm.Function { return comm.Disjointness{} }

// toyDigraphDelta is a K=1 directed family with an optional deliberate
// condition-2 break that Build and ApplyBit implement consistently:
// vertices 0,1 are Alice's, 2,3,4 Bob's; (1,2) is the fixed cut arc; x
// toggles (0,1), y toggles (2,3), and with breakB set x also toggles
// Bob's arc (3,4). With inconsistentApply set, ApplyBit silently drops
// Alice's toggle — a broken delta surface the spot-check must detect.
type toyDigraphDelta struct {
	breakB            bool
	inconsistentApply bool
}

func (d *toyDigraphDelta) Name() string        { return "toy-digraph-delta" }
func (d *toyDigraphDelta) K() int              { return 1 }
func (d *toyDigraphDelta) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }
func (d *toyDigraphDelta) AliceSide() []bool   { return []bool{true, true, false, false, false} }

func (d *toyDigraphDelta) Build(x, y comm.Bits) (*graph.Digraph, error) {
	g := graph.NewDigraph(5)
	g.MustAddArc(1, 2)
	if x.Get(0) {
		g.MustAddArc(0, 1)
		if d.breakB {
			g.MustAddArc(3, 4)
		}
	}
	if y.Get(0) {
		g.MustAddArc(2, 3)
	}
	return g, nil
}

func (d *toyDigraphDelta) BuildBase() (*graph.Digraph, error) {
	return d.Build(comm.NewBits(1), comm.NewBits(1))
}

func (d *toyDigraphDelta) ApplyBit(g *graph.Digraph, player, bit int, val bool) error {
	if bit != 0 {
		return fmt.Errorf("bit %d out of range", bit)
	}
	if player == lbfamily.PlayerX {
		if d.inconsistentApply {
			return nil // deliberately diverges from Build
		}
		if _, err := g.ToggleArc(0, 1, 1); err != nil {
			return err
		}
		if d.breakB {
			if _, err := g.ToggleArc(3, 4, 1); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := g.ToggleArc(2, 3, 1)
	return err
}

func (d *toyDigraphDelta) Predicate(g *graph.Digraph) (bool, error) {
	return g.HasArc(0, 1) && g.HasArc(2, 3), nil
}

var _ lbfamily.DeltaFamilyOf[*graph.Digraph] = (*toyDigraphDelta)(nil)

// TestDigraphDeltaFirstErrorMatchesRebuild asserts that on deliberately
// broken directed families the delta path reports the byte-identical
// first (row-major) error the rebuild path reports.
func TestDigraphDeltaFirstErrorMatchesRebuild(t *testing.T) {
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fam  lbfamily.Family[*graph.Digraph]
		want string // substring naming the violated condition
	}{
		{name: "condition4", fam: condition4BrokenDigraph{ham}, want: "condition 4"},
		{name: "condition2", fam: &toyDigraphDelta{breakB: true}, want: "condition 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltaErr := lbfamily.Verify(tc.fam)
			rebuildErr := lbfamily.VerifyRebuild(tc.fam)
			if deltaErr == nil || rebuildErr == nil {
				t.Fatalf("broken family accepted: delta=%v rebuild=%v", deltaErr, rebuildErr)
			}
			if deltaErr.Error() != rebuildErr.Error() {
				t.Fatalf("first errors differ:\n delta:   %s\n rebuild: %s", deltaErr, rebuildErr)
			}
			if got := deltaErr.Error(); !strings.Contains(got, tc.want) {
				t.Fatalf("error %q does not mention %q", got, tc.want)
			}
		})
	}
	// The unbroken toy family must verify cleanly on both paths.
	if err := lbfamily.Verify(&toyDigraphDelta{}); err != nil {
		t.Fatalf("correct toy digraph delta family rejected: %v", err)
	}
	if err := lbfamily.VerifyRebuild(&toyDigraphDelta{}); err != nil {
		t.Fatalf("correct toy digraph delta family rejected by rebuild path: %v", err)
	}
}

// TestInconsistentDigraphApplyBitFallsBack: a directed family whose
// ApplyBit disagrees with Build must not be verified through the delta
// path — the surface spot-check detects the divergence and verification
// transparently falls back to rebuilding every pair.
func TestInconsistentDigraphApplyBitFallsBack(t *testing.T) {
	fam := &toyDigraphDelta{inconsistentApply: true}
	xs := allInputs(t, fam.K())
	if _, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, false); err != nil {
		t.Fatal(err)
	} else if usedDelta {
		t.Fatal("inconsistent delta surface was not detected")
	}
	if err := lbfamily.Verify(fam); err != nil {
		t.Fatalf("fallback verification rejected a correct Build: %v", err)
	}
	// The consistent surface must keep the delta path.
	if _, usedDelta, err := lbfamily.CollectOutcomesForTest(&toyDigraphDelta{}, xs, xs, false); err != nil {
		t.Fatal(err)
	} else if !usedDelta {
		t.Fatal("consistent delta surface fell back")
	}
}

// TestVerifySampledDigraph covers the sampled path (dedup included) on
// correct and broken directed families.
func TestVerifySampledDigraph(t *testing.T) {
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lbfamily.VerifySampled(ham, rand.New(rand.NewSource(1)), 12); err != nil {
		t.Fatal(err)
	}
	broken := condition4BrokenDigraph{ham}
	if err := lbfamily.VerifySampled(broken, rand.New(rand.NewSource(1)), 12); err == nil {
		t.Fatal("sampled verification accepted a condition-4 break")
	}
}

// TestDigraphDeltaVerifyAllocsPerPair is the directed analogue of
// TestDeltaVerifyAllocsPerPair: delta-enabled exhaustive verification must
// stay O(1) allocations per input pair (per-worker clone/oracle arenas
// amortize to a few allocs per pair at k=2; rebuilds cost hundreds).
func TestDigraphDeltaVerifyAllocsPerPair(t *testing.T) {
	fam, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := float64(int(1) << uint(2*fam.K()))
	allocs := testing.AllocsPerRun(3, func() {
		if err := lbfamily.Verify(fam); err != nil {
			t.Fatal(err)
		}
	})
	if perPair := allocs / pairs; perPair > 16 {
		t.Errorf("%s: %.1f allocs/pair (%.0f total for %.0f pairs), want <= 16",
			fam.Name(), perPair, allocs, pairs)
	}
}
