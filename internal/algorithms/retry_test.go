package algorithms

import (
	"errors"
	"math/rand"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// runCollectRetry runs the retransmitting collect on g under plan (nil
// for fault-free) and returns the summed root values.
func runCollectRetry(t *testing.T, g *graph.Graph, spec CollectSpec[*graph.Graph], plan *faults.Plan) int64 {
	t.Helper()
	bw := CollectRetryMinBandwidth(g.N())
	factory, budget, err := CollectRetryFactory(g, bw, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := congest.Run(g, factory, congest.Options{BandwidthBits: bw, MaxRounds: budget + 2, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	total, err := CollectTotal(res)
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// reconstructSpec returns a spec whose roots score 1 iff the collected
// graph equals want.
func reconstructSpec(want string) CollectSpec[*graph.Graph] {
	return CollectSpec[*graph.Graph]{
		Eval: Stateless(func(collected *graph.Graph) (int64, error) {
			if collected.Signature() == want {
				return 1, nil
			}
			return 0, nil
		}),
	}
}

func TestCollectRetryMatchesCollectFaultFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []*graph.Graph{graph.Path(9), graph.Star(8), graph.Complete(6)}
	w := graph.GnpWeighted(10, 0.5, 1000, rng)
	for !w.IsConnected() {
		w = graph.GnpWeighted(10, 0.5, 1000, rng)
	}
	cases = append(cases, w)
	for i, g := range cases {
		if got := runCollectRetry(t, g, reconstructSpec(g.Signature()), nil); got != 1 {
			t.Errorf("case %d: fault-free collect-retry did not reconstruct the graph (total %d)", i, got)
		}
	}
}

func TestCollectRetryExactUnderDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(12, 0.4, rng)
	for !g.IsConnected() {
		g = graph.Gnp(12, 0.4, rng)
	}
	for _, plan := range []*faults.Plan{
		{Seed: 7, DropProb: 0.01},
		{Seed: 9, DropProb: 0.05},
		{Seed: 2, DropProb: 0.05, MaxDelay: 2},
	} {
		if got := runCollectRetry(t, g, reconstructSpec(g.Signature()), plan); got != 1 {
			t.Errorf("plan %s: collect-retry lost records (total %d)", plan, got)
		}
	}
}

func TestCollectRetryTotalBlackoutExhaustsBudget(t *testing.T) {
	// drop=1 is the total-blackout adversary: no message is ever
	// delivered, so no ARQ stream makes progress and the nodes retransmit
	// for their entire retry budget. Two guarantees matter: a MaxRounds
	// guard below the retry budget fires as the clean typed budget error
	// (every node still live, deterministically), and a run granted the
	// full budget still terminates on its own — either way, no hang.
	g := graph.Path(6)
	plan := &faults.Plan{Seed: 3, DropProb: 1}
	bw := CollectRetryMinBandwidth(g.N())
	factory, budget, err := CollectRetryFactory(g, bw, reconstructSpec(g.Signature()))
	if err != nil {
		t.Fatal(err)
	}
	guard := budget / 2
	run := func() error {
		_, err := congest.Run(g, factory, congest.Options{BandwidthBits: bw, MaxRounds: guard, Faults: plan})
		return err
	}
	err = run()
	var rerr *congest.RoundsError
	if !errors.As(err, &rerr) {
		t.Fatalf("total blackout returned %v, want a *congest.RoundsError", err)
	}
	if rerr.Limit != guard || rerr.Live != g.N() {
		t.Errorf("RoundsError = %+v, want limit %d with all %d nodes live", rerr, guard, g.N())
	}
	if again := run(); again == nil || again.Error() != err.Error() {
		t.Errorf("blackout replay diverged: %v vs %v", err, again)
	}

	res, err := congest.Run(g, factory, congest.Options{BandwidthBits: bw, MaxRounds: budget + 2, Faults: plan})
	if err != nil {
		t.Fatalf("full-budget blackout run: %v", err)
	}
	if res.Rounds != budget+1 {
		t.Errorf("full-budget blackout ran %d rounds, want the baked-in budget %d+1", res.Rounds, budget)
	}
	if total, err := CollectTotal(res); err != nil || total != 0 {
		t.Errorf("blackout roots reconstructed the graph (total %d, err %v), want 0", total, err)
	}
}

func TestPlainCollectBreaksUnderDropsButRetryDoesNot(t *testing.T) {
	// The contrast that motivates the variant: at a substantial drop rate
	// the plain pipelined collect misses records, while the ARQ streams
	// still deliver every chunk.
	// A path has a single route per record: one dropped relay loses the
	// record downstream for good (a dense graph would heal the loss via
	// alternate flooding paths).
	g := graph.Path(12)
	plan := &faults.Plan{Seed: 1, DropProb: 0.2}
	spec := reconstructSpec(g.Signature())

	factory, _, err := CollectFactory(g, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := congest.Run(g, factory, congest.Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if total, err := CollectTotal(res); err == nil && total == 1 {
		t.Error("plain collect reconstructed the graph exactly despite 20% drops; the fixture no longer discriminates")
	}

	if got := runCollectRetry(t, g, spec, plan); got != 1 {
		t.Errorf("collect-retry lost records at 20%% drops (total %d)", got)
	}
}

func TestCollectRetryWeightedFrames(t *testing.T) {
	// Multi-chunk weight frames must survive retransmission: weights wide
	// enough to need several bandwidth-3-bit chunks.
	g := graph.New(5)
	g.MustAddWeightedEdge(0, 1, 1<<40)
	g.MustAddWeightedEdge(1, 2, 3)
	g.MustAddWeightedEdge(2, 3, 1<<52+17)
	g.MustAddWeightedEdge(3, 4, 1)
	g.MustAddWeightedEdge(0, 4, 9)
	plan := &faults.Plan{Seed: 13, DropProb: 0.1}
	if got := runCollectRetry(t, g, reconstructSpec(g.Signature()), plan); got != 1 {
		t.Errorf("weighted collect-retry lost records under drops (total %d)", got)
	}
}

func TestCollectRetryMinBandwidth(t *testing.T) {
	for _, tc := range []struct{ n, min int }{
		{1, 3},     // id space is a single point; only the header matters
		{4, 7},     // ids need 4 bits + 3 header, above the default 6
		{1000, 23}, // ids need 20 bits + 3 header, above the default 20
	} {
		if got := CollectRetryMinBandwidth(tc.n); got != tc.min {
			t.Errorf("CollectRetryMinBandwidth(%d) = %d, want %d", tc.n, got, tc.min)
		}
	}
}

func TestCollectRetryRejectsNarrowBandwidth(t *testing.T) {
	g := graph.Path(10)
	if _, _, err := CollectRetryFactory(g, 8, CollectSpec[*graph.Graph]{Eval: Stateless(func(*graph.Graph) (int64, error) { return 0, nil })}); err == nil {
		t.Error("bandwidth 8 accepted for n=10 (ids need 7 bits + 3 header)")
	}
	if _, _, err := CollectRetryFactory(graph.New(0), 0, CollectSpec[*graph.Graph]{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestCollectRetryReplayDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Gnp(10, 0.4, rng)
	for !g.IsConnected() {
		g = graph.Gnp(10, 0.4, rng)
	}
	plan := &faults.Plan{Seed: 7, DropProb: 0.05}
	bw := CollectRetryMinBandwidth(g.N())
	run := func() *congest.Result {
		factory, budget, err := CollectRetryFactory(g, bw, CollectSpec[*graph.Graph]{
			Eval: Stateless(func(collected *graph.Graph) (int64, error) { return int64(collected.M()), nil }),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := congest.Run(g, factory, congest.Options{BandwidthBits: bw, MaxRounds: budget + 2, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.Rounds != b.Rounds {
		t.Errorf("replay diverged: %d msgs/%d rounds vs %d msgs/%d rounds",
			a.Messages, a.Rounds, b.Messages, b.Rounds)
	}
}
