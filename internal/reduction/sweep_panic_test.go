package reduction

import (
	"errors"
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// badPairs is a set of (x, y) inputs on which a family's Build panics.
type badPairs map[string]bool

func (b badPairs) check(x, y comm.Bits) {
	if b[x.String()+"|"+y.String()] {
		panic("build exploded")
	}
}

// applyExplodes reports whether ApplyBit panics on this call: whenever it
// sets bit 1 of y. The first pair whose instance needs that bit is the
// first pair of column 2 (y = gray(2) = 3) in both the serial and the
// sharded walk, since a worker stops at its first failed toggle.
func applyExplodes(player, bit int, val bool) bool {
	return player == lbfamily.PlayerY && bit == 1 && val
}

// panickyMDS is the MDS family with a Build that panics on bad pairs and,
// when apply is set, an ApplyBit that panics by applyExplodes.
type panickyMDS struct {
	*mdslb.Family
	bad   badPairs
	apply bool
}

func (f panickyMDS) Build(x, y comm.Bits) (*graph.Graph, error) {
	f.bad.check(x, y)
	return f.Family.Build(x, y)
}

func (f panickyMDS) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	if f.apply && applyExplodes(player, bit, val) {
		panic("apply exploded")
	}
	return f.Family.ApplyBit(g, player, bit, val)
}

// panickyHam is panickyMDS for the directed Hamiltonian path family.
type panickyHam struct {
	*hamlb.Family
	bad   badPairs
	apply bool
}

func (f panickyHam) Build(x, y comm.Bits) (*graph.Digraph, error) {
	f.bad.check(x, y)
	return f.Family.Build(x, y)
}

func (f panickyHam) ApplyBit(d *graph.Digraph, player, bit int, val bool) error {
	if f.apply && applyExplodes(player, bit, val) {
		panic("apply exploded")
	}
	return f.Family.ApplyBit(d, player, bit, val)
}

// TestCertifyConfinesBuildAndApplyBitPanics: a panic in a family's Build
// (rebuild sweeps) or ApplyBit (delta sweeps) is confined like one in the
// algorithm. Sharded and serial, on both graph kinds, Certify returns a
// *lbfamily.PanicError naming the canonical-first failing pair, with the
// report truncated to exactly the pairs before it.
func TestCertifyConfinesBuildAndApplyBitPanics(t *testing.T) {
	mds, ham := mdsFam(t), hamFam(t)
	clean, err := Certify(mds, CollectMDS(mds), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both families have K = 4: columns of 16 pairs, the same layout.
	const firstBuild, laterBuild, firstApply = 37, 200, 2 * 16
	pair := func(idx int) string { return clean.Pairs[idx].X.String() + "|" + clean.Pairs[idx].Y.String() }
	bad := badPairs{pair(laterBuild): true, pair(firstBuild): true}

	cases := []struct {
		name    string
		apply   bool
		wantIdx int
		want    string
	}{
		{"build", false, firstBuild, "build exploded"},
		{"apply", true, firstApply, "apply exploded"},
	}
	for _, tc := range cases {
		runs := map[string]func(cfg Config) (*Report, error){
			"mds": func(cfg Config) (*Report, error) {
				fam := panickyMDS{Family: mds, apply: tc.apply}
				if !tc.apply {
					fam.bad, cfg.ForceRebuild = bad, true
				}
				return Certify(fam, CollectMDS(mds), cfg)
			},
			"hamlb": func(cfg Config) (*Report, error) {
				fam := panickyHam{Family: ham, apply: tc.apply}
				if !tc.apply {
					fam.bad, cfg.ForceRebuild = bad, true
				}
				return CertifyDigraph(fam, CollectHamPath(ham), cfg)
			},
		}
		for kind, run := range runs {
			var serial *Report
			for _, cfg := range []Config{{Seed: 1, Serial: true}, {Seed: 1, Workers: 4}} {
				label := tc.name + "/" + kind + "/serial"
				if !cfg.Serial {
					label = tc.name + "/" + kind + "/sharded"
				}
				rep, err := run(cfg)
				var perr *lbfamily.PanicError
				if !errors.As(err, &perr) {
					t.Fatalf("%s: got %v, want *lbfamily.PanicError", label, err)
				}
				if got := perr.X.String() + "|" + perr.Y.String(); got != pair(tc.wantIdx) {
					t.Errorf("%s: panic names %s, want canonical index %d (%s)", label, got, tc.wantIdx, pair(tc.wantIdx))
				}
				if !strings.Contains(err.Error(), tc.want) || len(perr.Stack) == 0 {
					t.Errorf("%s: error %q (stack %d bytes) does not describe the panic", label, err, len(perr.Stack))
				}
				if rep == nil || rep.Completed != tc.wantIdx || rep.Total != 256 {
					t.Fatalf("%s: want a report of the %d pairs before the panic, got %+v", label, tc.wantIdx, rep)
				}
				if serial == nil {
					serial = rep
				} else {
					reportsEqual(t, label, serial, rep)
				}
			}
		}
	}
}
