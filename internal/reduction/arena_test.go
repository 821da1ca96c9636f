package reduction

import (
	"fmt"
	"reflect"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/faults"
	"congesthard/internal/lbfamily"
)

// arenaStep is one run of the arena purity walk: it runs its pair on the
// given arena (nil: a fresh one) and returns everything the run produced.
type arenaStep struct {
	name string
	run  func(ar *congest.Arena) (any, error)
}

// tracedNode wraps a node the way perfbench's tracer does: the factory
// hands the wrapper, not the program's own node, to the simulator.
type tracedNode struct{ congest.Node }

// pairStep runs alg on fam's (x, y) instance. wrap, if set, wraps every
// node the factory makes; verify runs the pair through VerifySimulation.
func pairStep[G lbfamily.Instance](t *testing.T, fam lbfamily.Family[G], alg AlgorithmOf[G], x, y string, opts congest.Options, wrap, verify bool) arenaStep {
	t.Helper()
	xb, err := comm.ParseBits(x)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := comm.ParseBits(y)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fam.Build(xb, yb)
	if err != nil {
		t.Fatal(err)
	}
	side, err := lbfamily.AliceSide(fam)
	if err != nil {
		t.Fatal(err)
	}
	opts.CutSide = side
	name := fmt.Sprintf("%s/%s (%s,%s) wrap=%v verify=%v", fam.Name(), alg.Name, x, y, wrap, verify)
	return arenaStep{name: name, run: func(ar *congest.Arena) (any, error) {
		bandwidth := opts.BandwidthBits
		if bandwidth == 0 {
			bandwidth = congest.DefaultBandwidth(len(side))
		}
		factory, decide, err := alg.Prepare(g, bandwidth, 5)
		if err != nil {
			return nil, err
		}
		if wrap {
			inner := factory
			factory = func(l congest.Local) congest.Node { return tracedNode{inner(l)} }
		}
		o := opts
		o.Arena = ar
		var transcript *TwoPartyTranscript
		var res *congest.Result
		if verify {
			transcript, res, err = VerifySimulation(g, side, factory, o)
		} else {
			res, err = congest.Run(g, factory, o)
		}
		if err != nil {
			return nil, err
		}
		out, err := decide(res)
		return []any{res, out, err, transcript}, nil
	}}
}

// TestArenaReuseIsPure pushes one arena through a walk of runs that
// mixes programs, graph kinds, sizes, fault plans, a wrapped factory and
// a transcript replay, and checks each run's result, outputs, metrics and
// decision against the same run on a fresh arena. Reused node state,
// Local views and root scratch must be invisible.
func TestArenaReuseIsPure(t *testing.T) {
	mds, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	mvc, err := mvclb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	collect, retry, path, matching := CollectMDS(mds), CollectRetryMDS(mds), CollectHamPath(ham), MatchingMVC(mvc)
	retryOpts := congest.Options{
		BandwidthBits: algorithms.CollectRetryMinBandwidth(mds.N()),
		MaxRounds:     algorithms.CollectRetryRoundsCap(mds.N()),
		Faults:        &faults.Plan{Seed: 3, DropProb: 0.05, MaxDelay: 2},
	}
	plain := congest.Options{}
	steps := []arenaStep{
		pairStep(t, mds, collect, "0000", "0000", plain, false, false),
		pairStep(t, mds, collect, "1000", "0100", plain, false, false),
		pairStep(t, mds, collect, "1111", "1111", plain, false, false),
		pairStep(t, mds, retry, "0110", "1001", retryOpts, false, false),
		pairStep(t, mds, collect, "0110", "1001", plain, false, false),
		pairStep(t, ham, path, "0100", "0010", plain, false, false),
		pairStep(t, ham, path, "1111", "0000", plain, false, false),
		pairStep(t, mvc, matching, "1010", "0110", plain, false, false),
		pairStep(t, mds, collect, "0011", "0101", plain, true, false),
		pairStep(t, mds, collect, "1001", "1001", plain, false, true),
		pairStep(t, ham, path, "1000", "1000", plain, false, true),
		pairStep(t, mds, retry, "1111", "0000", retryOpts, true, false),
		pairStep(t, mds, collect, "0000", "0000", plain, false, false),
		pairStep(t, ham, path, "0100", "0010", plain, true, false),
	}
	shared := &congest.Arena{}
	for _, step := range steps {
		got, err := step.run(shared)
		if err != nil {
			t.Fatalf("%s on the shared arena: %v", step.name, err)
		}
		want, err := step.run(nil)
		if err != nil {
			t.Fatalf("%s on a fresh arena: %v", step.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the shared arena's run differs from a fresh one:\n got %+v\nwant %+v", step.name, got, want)
		}
	}
}
