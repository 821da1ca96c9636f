package reduction

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"congesthard/internal/congest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// reportsEqual asserts two certification reports are bit-identical:
// every aggregate field and every pair, in order, field for field.
func reportsEqual(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Family != b.Family || a.Algorithm != b.Algorithm || a.Exact != b.Exact ||
		a.Exhaustive != b.Exhaustive || a.Bandwidth != b.Bandwidth {
		t.Fatalf("%s: report headers differ:\n  a %+v\n  b %+v", label, a, b)
	}
	if a.Completed != b.Completed || a.Total != b.Total || a.Mismatches != b.Mismatches ||
		a.MaxRounds != b.MaxRounds || a.MaxCutBits != b.MaxCutBits ||
		a.SimBits != b.SimBits || a.CCBound != b.CCBound {
		t.Fatalf("%s: aggregates differ:\n  a %+v\n  b %+v", label, a, b)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("%s: pair counts differ: %d vs %d", label, len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		pa, pb := a.Pairs[i], b.Pairs[i]
		if pa.X.String() != pb.X.String() || pa.Y.String() != pb.Y.String() ||
			pa.Rounds != pb.Rounds || pa.Messages != pb.Messages ||
			pa.CutMessages != pb.CutMessages || pa.CutBits != pb.CutBits ||
			pa.Output != pb.Output || pa.Want != pb.Want || pa.Correct != pb.Correct {
			t.Fatalf("%s: pair %d differs:\n  a %+v\n  b %+v", label, i, pa, pb)
		}
	}
}

func TestCertifyShardedMatchesSerial(t *testing.T) {
	// The tentpole differential: the sharded sweep must reproduce the
	// serial reference walk bit for bit — pair order, measurements,
	// aggregates — across worker counts, with and without the delta
	// builder, with transcript checks and fault plans active.
	fam := mdsFam(t)
	alg := CollectMDS(fam)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"exhaustive", Config{Seed: 1}},
		{"exhaustive-rebuild", Config{Seed: 1, ForceRebuild: true}},
		{"exhaustive-transcripts", Config{Seed: 1, TranscriptChecks: 5}},
		{"sampled", Config{Seed: 5, Pairs: 24}},
		{"sampled-faults", Config{Seed: 5, Pairs: 12, Faults: &faults.Plan{Seed: 7, DropProb: 0.01}}},
	}
	for _, tc := range configs {
		serialCfg := tc.cfg
		serialCfg.Serial = true
		want, err := Certify(fam, alg, serialCfg)
		if err != nil {
			t.Fatalf("%s: serial reference failed: %v", tc.name, err)
		}
		for _, workers := range []int{1, 3, 0} { // 0 = GOMAXPROCS
			cfg := tc.cfg
			cfg.Workers = workers
			got, err := Certify(fam, alg, cfg)
			if err != nil {
				t.Fatalf("%s/workers=%d: sharded sweep failed: %v", tc.name, workers, err)
			}
			reportsEqual(t, tc.name, want, got)
		}
	}
}

func TestCertifyDigraphShardedMatchesSerial(t *testing.T) {
	fam := hamFam(t)
	alg := CollectHamPath(fam)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"exhaustive", Config{Seed: 2}},
		{"exhaustive-rebuild", Config{Seed: 2, ForceRebuild: true}},
		{"sampled-transcripts", Config{Seed: 6, Pairs: 16, TranscriptChecks: 3}},
	}
	for _, tc := range configs {
		serialCfg := tc.cfg
		serialCfg.Serial = true
		want, err := Certify(fam, alg, serialCfg)
		if err != nil {
			t.Fatalf("%s: serial reference failed: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4, 0} {
			cfg := tc.cfg
			cfg.Workers = workers
			got, err := Certify(fam, alg, cfg)
			if err != nil {
				t.Fatalf("%s/workers=%d: sharded sweep failed: %v", tc.name, workers, err)
			}
			reportsEqual(t, tc.name, want, got)
		}
	}
}

// seedRecordingAlg wraps alg to record the seed each Prepare call
// received, keyed by the instance graph's structural hash. The per-pair
// seed contract says the map must not depend on visit order or worker
// count.
func seedRecordingAlg(alg AlgorithmOf[*graph.Graph], mu *sync.Mutex, seeds map[uint64]int64) AlgorithmOf[*graph.Graph] {
	inner := alg.Prepare
	alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
		within := make([]bool, g.N())
		for i := range within {
			within[i] = true
		}
		mu.Lock()
		seeds[g.HashWithin(within)] = seed
		mu.Unlock()
		return inner(g, bandwidth, seed)
	}
	return alg
}

func TestCertifyShardedPairSeedsMatchSerial(t *testing.T) {
	// Seeds are keyed by canonical pair index, so the instance→seed map
	// is identical between the serial walk and any sharded schedule. The
	// instance graph's structural hash identifies the pair: the family's
	// encoding is injective in (x, y).
	fam := mdsFam(t)
	record := func(cfg Config) map[uint64]int64 {
		var mu sync.Mutex
		seeds := map[uint64]int64{}
		if _, err := Certify(fam, seedRecordingAlg(CollectMDS(fam), &mu, seeds), cfg); err != nil {
			t.Fatalf("certify failed: %v", err)
		}
		return seeds
	}
	want := record(Config{Seed: 3, Serial: true})
	got := record(Config{Seed: 3, Workers: 5})
	if len(want) != len(got) {
		t.Fatalf("seed map sizes differ: serial %d, sharded %d", len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("pair seed diverged for instance %#x: serial %d, sharded %d", k, v, got[k])
		}
	}
}

func TestCertifyShardedCancelMidSweep(t *testing.T) {
	// Cancellation under sharding: the partial report's pair set may
	// have canonical-order gaps (workers stop mid-column), but the
	// CancelledError's Completed/Total must agree with the report, every
	// included pair must be fully certified, and no worker goroutine may
	// outlive the call.
	fam := mdsFam(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Seed: 1, Workers: 4, Progress: func(completed, total int) {
		if completed == 20 {
			cancel()
		}
	}}
	rep, err := CertifyCtx(ctx, fam, CollectMDS(fam), cfg)

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
	if rep.Completed != len(rep.Pairs) || cerr.Completed != rep.Completed {
		t.Errorf("inconsistent completion: report %d, len(Pairs) %d, error %d",
			rep.Completed, len(rep.Pairs), cerr.Completed)
	}
	if rep.Total != 256 || cerr.Total != 256 {
		t.Errorf("Total = %d (error says %d), want 256", rep.Total, cerr.Total)
	}
	if rep.Completed < 20 || rep.Completed >= rep.Total {
		t.Errorf("Completed = %d, want in [20, 256): cancel fired at 20 with workers in flight", rep.Completed)
	}
	for i, p := range rep.Pairs {
		if p.X.Len() == 0 || !p.Correct {
			t.Errorf("included pair %d not fully certified: %+v", i, p)
		}
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("worker goroutines leaked: %d before CertifyCtx, %d after", before, n)
	}
}

func TestCertifyShardedPanicNamesCanonicalFirstPair(t *testing.T) {
	// Two pairs panic in different columns; the sharded sweep must
	// report the canonical-order-first one and truncate the report to
	// its exact prefix — bit-identical to the serial walk hitting the
	// same first panic. The panicking pairs are recognized by their
	// seeds, which are pure functions of (Seed, canonical index).
	fam := mdsFam(t)
	const seed = 1
	bad := map[int64]bool{pairSeed(seed, 37): true, pairSeed(seed, 200): true}
	withPanics := func() AlgorithmOf[*graph.Graph] {
		alg := CollectMDS(fam)
		inner := alg.Prepare
		alg.Prepare = func(g *graph.Graph, bandwidth int, seedIn int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
			if bad[seedIn] {
				panic("prepare exploded")
			}
			return inner(g, bandwidth, seedIn)
		}
		return alg
	}

	wantRep, wantErr := Certify(fam, withPanics(), Config{Seed: seed, Serial: true})
	var wantPerr *lbfamily.PanicError
	if !errors.As(wantErr, &wantPerr) {
		t.Fatalf("serial reference returned %v, want *lbfamily.PanicError", wantErr)
	}
	if wantRep.Completed != 37 {
		t.Fatalf("serial reference completed %d pairs, want 37 (panic at canonical index 37)", wantRep.Completed)
	}

	gotRep, gotErr := Certify(fam, withPanics(), Config{Seed: seed, Workers: 4})
	var gotPerr *lbfamily.PanicError
	if !errors.As(gotErr, &gotPerr) {
		t.Fatalf("sharded sweep returned %v, want *lbfamily.PanicError", gotErr)
	}
	if gotPerr.X.String() != wantPerr.X.String() || gotPerr.Y.String() != wantPerr.Y.String() {
		t.Errorf("sharded panic names (%s,%s), serial names (%s,%s): canonical-first selection broken",
			gotPerr.X, gotPerr.Y, wantPerr.X, wantPerr.Y)
	}
	if !strings.Contains(gotErr.Error(), "prepare exploded") {
		t.Errorf("error %q does not describe the panic", gotErr)
	}
	reportsEqual(t, "panic-prefix", wantRep, gotRep)
}

func TestCertifyShardedProgressMonotone(t *testing.T) {
	// The Progress contract under concurrency: calls are serialized,
	// completed is strictly increasing by 1, total is constant, and the
	// final call reports completion.
	fam := mdsFam(t)
	prev, calls := 0, 0
	var wrongTotal, nonMonotone bool
	cfg := Config{Seed: 1, Workers: 4, Progress: func(completed, total int) {
		calls++
		if total != 256 {
			wrongTotal = true
		}
		if completed != prev+1 {
			nonMonotone = true
		}
		prev = completed
	}}
	rep, err := Certify(fam, CollectMDS(fam), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wrongTotal {
		t.Error("Progress saw a total != 256")
	}
	if nonMonotone {
		t.Error("Progress calls not strictly increasing by 1")
	}
	if calls != 256 || prev != 256 {
		t.Errorf("Progress called %d times ending at %d, want 256/256", calls, prev)
	}
	if rep.Completed != 256 {
		t.Errorf("Completed = %d, want 256", rep.Completed)
	}
}

func TestCertifyDigraphShardedCancelConsistent(t *testing.T) {
	// The directed sweep shares the sharded core; spot-check the
	// cancellation contract there too.
	fam := hamFam(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Seed: 1, Workers: 3, Progress: func(completed, total int) {
		if completed == 10 {
			cancel()
		}
	}}
	rep, err := CertifyCtx(ctx, fam, CollectHamPath(fam), cfg)
	var cerr *lbfamily.CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("CertifyCtx returned %v, want *lbfamily.CancelledError", err)
	}
	if rep == nil || rep.Completed != len(rep.Pairs) || cerr.Completed != rep.Completed || cerr.Total != rep.Total {
		t.Fatalf("inconsistent partial digraph report: %+v (err %+v)", rep, cerr)
	}
}

func TestCongestArenaReuseBitIdentical(t *testing.T) {
	// Direct arena check at the simulator layer: the same program run
	// repeatedly against one Arena — including a fault-plan run in the
	// middle, which switches the delivery path to the ring buffers —
	// must reproduce the fresh-allocation run exactly.
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		g.MustAddEdge(v-1, v)
	}
	factory := func(local congest.Local) congest.Node {
		sum := int64(local.ID)
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				for _, m := range inbox {
					sum += m.Payload
				}
				if round >= 3 {
					return nil, true
				}
				out := make([]congest.Message, 0, len(local.Neighbors))
				for _, nb := range local.Neighbors {
					out = append(out, congest.Message{To: nb, Payload: int64(local.ID + round)})
				}
				return out, false
			},
			OutputFunc: func() interface{} { return sum },
		}
	}
	cut := []bool{true, true, true, false, false, false}
	fresh, err := congest.Run(g, factory, congest.Options{CutSide: cut})
	if err != nil {
		t.Fatal(err)
	}
	arena := &congest.Arena{}
	for i := 0; i < 3; i++ {
		if i == 1 {
			opts := congest.Options{CutSide: cut, Faults: &faults.Plan{Seed: 2, DropProb: 0.5}, Arena: arena}
			if _, err := congest.Run(g, factory, opts); err != nil {
				t.Fatalf("faulted arena run %d: %v", i, err)
			}
			continue
		}
		res, err := congest.Run(g, factory, congest.Options{CutSide: cut, Arena: arena})
		if err != nil {
			t.Fatalf("arena run %d: %v", i, err)
		}
		if res.Rounds != fresh.Rounds || res.Messages != fresh.Messages ||
			res.CutMessages != fresh.CutMessages || res.CutBits != fresh.CutBits {
			t.Fatalf("arena run %d metrics diverged: %+v vs %+v", i, res.Metrics, fresh.Metrics)
		}
		for v := range res.Outputs {
			if res.Outputs[v] != fresh.Outputs[v] {
				t.Fatalf("arena run %d output[%d] = %v, fresh %v", i, v, res.Outputs[v], fresh.Outputs[v])
			}
		}
	}
}

func TestDicongestArenaReuseBitIdentical(t *testing.T) {
	d := graph.NewDigraph(5)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 2)
	d.MustAddArc(3, 2)
	d.MustAddArc(3, 4)
	d.MustAddArc(4, 0)
	factory := func(local congest.Local) congest.Node {
		sum := int64(local.ID)
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				for _, m := range inbox {
					sum += m.Payload
				}
				if round >= 2 {
					return nil, true
				}
				out := make([]congest.Message, 0, len(local.Neighbors))
				for _, nb := range local.Neighbors {
					out = append(out, congest.Message{To: nb, Payload: int64(nb)})
				}
				return out, false
			},
			OutputFunc: func() interface{} { return sum },
		}
	}
	cut := []bool{true, true, false, false, true}
	fresh, err := congest.Run(d, factory, congest.Options{CutSide: cut})
	if err != nil {
		t.Fatal(err)
	}
	arena := &congest.Arena{}
	for i := 0; i < 3; i++ {
		res, err := congest.Run(d, factory, congest.Options{CutSide: cut, Arena: arena})
		if err != nil {
			t.Fatalf("arena run %d: %v", i, err)
		}
		if res.Rounds != fresh.Rounds || res.Messages != fresh.Messages || res.CutBits != fresh.CutBits {
			t.Fatalf("arena run %d metrics diverged: %+v vs %+v", i, res.Metrics, fresh.Metrics)
		}
		for v := range res.Outputs {
			if res.Outputs[v] != fresh.Outputs[v] {
				t.Fatalf("arena run %d output[%d] = %v, fresh %v", i, v, res.Outputs[v], fresh.Outputs[v])
			}
		}
	}
}
