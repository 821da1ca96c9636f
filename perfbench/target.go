package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
	"congesthard/internal/solver"
)

// target is a registry pairing rebuilt from the same public constructors
// serve.DefaultRegistry uses, so the traced run can wrap the algorithm's
// seams. Its traced sweeps must digest equal to the registry Runner's
// serial reference, which checks that the rebuild is faithful and that
// observation does not change execution.
type target struct {
	// bandwidth and maxRounds are the config overrides the registry's
	// Runner applies (0 keeps the engine default).
	bandwidth, maxRounds int
	und                  *undirectedTarget
	dir                  *directedTarget
}

type undirectedTarget struct {
	fam    lbfamily.DeltaFamily
	alg    reduction.Algorithm
	oracle func(g *graph.Graph) (calls int, busy time.Duration, err error)
}

type directedTarget struct {
	fam    lbfamily.DeltaDigraphFamily
	alg    reduction.DigraphAlgorithm
	oracle func(d *graph.Digraph) (calls int, busy time.Duration, err error)
}

func newTarget(key string) (*target, error) {
	t := &target{}
	switch key {
	case "mds/collect", "mds/collect-retry":
		fam, err := mdslb.New(2)
		if err != nil {
			return nil, err
		}
		t.und = &undirectedTarget{fam: fam, alg: reduction.CollectMDS(fam), oracle: mdsOracle}
		if key == "mds/collect-retry" {
			t.und.alg = reduction.CollectRetryMDS(fam)
			t.bandwidth = algorithms.CollectRetryMinBandwidth(fam.N())
			t.maxRounds = algorithms.CollectRetryRoundsCap(fam.N())
		}
	case "hamlb/collect":
		fam, err := hamlb.New(2)
		if err != nil {
			return nil, err
		}
		t.dir = &directedTarget{fam: fam, alg: reduction.CollectHamPath(fam), oracle: hamOracle(fam)}
	default:
		return nil, fmt.Errorf("no traced rebuild of pairing %s", key)
	}
	return t, nil
}

// mdsOracle runs the collect program's ground truth alone: the domination
// number of every component, one size query at a time.
func mdsOracle(g *graph.Graph) (int, time.Duration, error) {
	comp, count := g.Components()
	calls := 0
	var busy time.Duration
	var o solver.MDSOracle
	for c := 0; c < count; c++ {
		sub, _ := g.InducedSubgraph(func(v int) bool { return comp[v] == c })
		t0 := time.Now()
		for s := 0; s <= sub.N(); s++ {
			calls++
			ok, err := o.HasDominatingSetOfSize(sub, s)
			if err != nil {
				return calls, busy, err
			}
			if ok {
				break
			}
		}
		busy += time.Since(t0)
	}
	return calls, busy, nil
}

// hamOracle runs the Hamiltonian path search alone; like the collect
// program it is only consulted when one weak component spans the graph.
func hamOracle(fam *hamlb.Family) func(d *graph.Digraph) (int, time.Duration, error) {
	return func(d *graph.Digraph) (int, time.Duration, error) {
		if _, count := d.Underlying().Components(); count != 1 {
			return 0, 0, nil
		}
		t0 := time.Now()
		_, _, err := solver.DirectedHamiltonianPathFrom(d, fam.Start(), fam.End())
		return 1, time.Since(t0), err
	}
}

// withOverrides applies the registry Runner's config adjustments.
func (t *target) withOverrides(cfg reduction.Config) reduction.Config {
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = t.bandwidth
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = t.maxRounds
	}
	return cfg
}

// tracedRunner returns a serve.Runner that certifies with the wrapped
// algorithm and a round tracer, recording spans into clock.
func (t *target) tracedRunner(clock *layerClock) serve.Runner {
	return func(ctx context.Context, cfg reduction.Config) (*reduction.Report, error) {
		cfg = t.withOverrides(cfg)
		cfg.Trace = clock.roundTracer
		sw := clock.beginSweep()
		var rep *reduction.Report
		var err error
		if t.und != nil {
			rep, err = reduction.CertifyCtx(ctx, t.und.fam, tracedAlgorithm(t.und.alg, sw), cfg)
		} else {
			rep, err = reduction.CertifyDigraphCtx(ctx, t.dir.fam, tracedDigraphAlgorithm(t.dir.alg, sw), cfg)
		}
		if rep != nil {
			sw.end(sweepWorkers(cfg, rep), len(rep.Pairs))
		}
		return rep, err
	}
}

// sweepWorkers mirrors the engine's worker count: Config.Workers (or
// GOMAXPROCS) capped at the sweep's column count, 1 when Serial.
func sweepWorkers(cfg reduction.Config, rep *reduction.Report) int {
	if cfg.Serial {
		return 1
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	cols := rep.Total
	if rep.Exhaustive {
		cols = 1 << uint(rep.Stats.K)
	}
	return max(1, min(w, cols))
}

// isolated holds one pass of every layer run alone over a report's pairs.
type isolated struct {
	pairs       int
	bases       int // BuildBase calls timed into buildBase
	buildBase   time.Duration
	toggles     int // toggles of the canonical walk from the base instance
	toggleRuns  int // toggles replayed in the timed toggle-only passes
	toggleTime  time.Duration
	nullRun     time.Duration
	nullPlanRun time.Duration
	nullMsgs    int64
	realMsgs    int64
	planlessMsg int64
	realAllocs  uint64
	nullAllocs  uint64
	oracle      time.Duration
	oracleCalls int
	transcript  time.Duration
	transcripts int
}

func (a *isolated) add(b isolated) {
	a.pairs += b.pairs
	a.bases += b.bases
	a.buildBase += b.buildBase
	a.toggles += b.toggles
	a.toggleRuns += b.toggleRuns
	a.toggleTime += b.toggleTime
	a.nullRun += b.nullRun
	a.nullPlanRun += b.nullPlanRun
	a.nullMsgs += b.nullMsgs
	a.realMsgs += b.realMsgs
	a.planlessMsg += b.planlessMsg
	a.realAllocs += b.realAllocs
	a.nullAllocs += b.nullAllocs
	a.oracle += b.oracle
	a.oracleCalls += b.oracleCalls
	a.transcript += b.transcript
	a.transcripts += b.transcripts
}

// transcriptPairs is how many pairs per report the isolated run replays
// through the Theorem 1.1 transcript check.
const transcriptPairs = 8

// minTogglePass is the least time the toggle-only replay runs, so a
// sub-microsecond ApplyBit is timed over many calls.
const minTogglePass = 20 * time.Millisecond

// walker replays a sweep's input toggles on one mutable instance.
type walker[G any] struct {
	g          G
	apply      func(g G, player, bit int, val bool) error
	curX, curY comm.Bits
	toggles    int
}

func newWalker[G any](g G, k int, apply func(G, int, int, bool) error) *walker[G] {
	return &walker[G]{g: g, apply: apply, curX: comm.NewBits(k), curY: comm.NewBits(k)}
}

func (w *walker[G]) to(x, y comm.Bits) error {
	for _, step := range []struct {
		player      int
		cur, target comm.Bits
	}{{lbfamily.PlayerY, w.curY, y}, {lbfamily.PlayerX, w.curX, x}} {
		var err error
		step.cur.ForEachDiff(step.target, func(i int) bool {
			if err = w.apply(w.g, step.player, i, step.target.Get(i)); err != nil {
				return false
			}
			step.cur.Set(i, step.target.Get(i))
			w.toggles++
			return true
		})
		if err != nil {
			return fmt.Errorf("apply bit at (%s,%s): %w", x, y, err)
		}
	}
	return nil
}

// replayToggles times the toggle sequence of rep's pairs alone.
func replayToggles[G any](iso *isolated, rep *reduction.Report, build func() (G, error), apply func(G, int, int, bool) error) error {
	t0 := time.Now()
	g, err := build()
	if err != nil {
		return err
	}
	iso.buildBase, iso.bases = time.Since(t0), 1
	w := newWalker(g, rep.Stats.K, apply)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < minTogglePass; pass++ {
		for i := range rep.Pairs {
			if err := w.to(rep.Pairs[i].X, rep.Pairs[i].Y); err != nil {
				return err
			}
		}
		if pass == 0 {
			iso.toggles = w.toggles
		}
	}
	iso.toggleTime = time.Since(start)
	iso.toggleRuns = w.toggles
	return nil
}

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// isolate runs every layer alone over rep's pairs: toggles, the core with
// null programs (with and without the fault plan), the real programs,
// the oracle and transcript checks.
func (t *target) isolate(cfg reduction.Config, rep *reduction.Report) (isolated, error) {
	cfg = t.withOverrides(cfg)
	iso := isolated{pairs: len(rep.Pairs)}
	if t.und != nil {
		return iso, t.und.isolate(&iso, cfg, rep)
	}
	return iso, t.dir.isolate(&iso, cfg, rep)
}

func (u *undirectedTarget) isolate(iso *isolated, cfg reduction.Config, rep *reduction.Report) error {
	if err := replayToggles(iso, rep, u.fam.BuildBase, u.fam.ApplyBit); err != nil {
		return err
	}
	g, err := u.fam.BuildBase()
	if err != nil {
		return err
	}
	w := newWalker(g, rep.Stats.K, u.fam.ApplyBit)
	side := u.fam.AliceSide()
	arena := &congest.Arena{}
	opts := func(plan bool) congest.Options {
		o := congest.Options{BandwidthBits: rep.Bandwidth, MaxRounds: cfg.MaxRounds, CutSide: side, Arena: arena}
		if plan {
			o.Faults = cfg.Faults
		}
		return o
	}
	run := func(plan bool) (*congest.Result, error) {
		factory, _, err := u.alg.Prepare(g, rep.Bandwidth, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return congest.Run(g, factory, opts(plan))
	}
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		if err := w.to(p.X, p.Y); err != nil {
			return err
		}
		a0 := heapAllocs()
		res, err := run(true)
		iso.realAllocs += heapAllocs() - a0
		if err != nil {
			return err
		}
		if res.Rounds != p.Rounds || res.Messages != p.Messages {
			return fmt.Errorf("isolated run of (%s,%s) gave %d rounds/%d msgs, report has %d/%d", p.X, p.Y, res.Rounds, res.Messages, p.Rounds, p.Messages)
		}
		iso.realMsgs += res.Messages
		planless := res.Messages
		if cfg.Faults != nil {
			clean, err := run(false)
			if err != nil {
				return err
			}
			planless = clean.Messages
		}
		iso.planlessMsg += planless
		null := nullFactory(p.Rounds)
		a0 = heapAllocs()
		t0 := time.Now()
		nres, err := congest.Run(g, null, opts(false))
		iso.nullRun += time.Since(t0)
		iso.nullAllocs += heapAllocs() - a0
		if err != nil {
			return err
		}
		iso.nullMsgs += nres.Messages
		t0 = time.Now()
		if _, err := congest.Run(g, null, opts(true)); err != nil {
			return err
		}
		iso.nullPlanRun += time.Since(t0)
		calls, busy, err := u.oracle(g)
		if err != nil {
			return err
		}
		iso.oracleCalls += calls
		iso.oracle += busy
		if i < transcriptPairs {
			factory, _, err := u.alg.Prepare(g, rep.Bandwidth, cfg.Seed)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, _, err := reduction.VerifySimulation(g, side, factory, opts(true)); err != nil {
				return err
			}
			iso.transcript += time.Since(t0)
			iso.transcripts++
		}
	}
	return nil
}

func (d *directedTarget) isolate(iso *isolated, cfg reduction.Config, rep *reduction.Report) error {
	if err := replayToggles(iso, rep, d.fam.BuildBase, d.fam.ApplyBit); err != nil {
		return err
	}
	g, err := d.fam.BuildBase()
	if err != nil {
		return err
	}
	w := newWalker(g, rep.Stats.K, d.fam.ApplyBit)
	side := d.fam.AliceSide()
	arena := &dicongest.Arena{}
	opts := func(plan bool) dicongest.Options {
		o := dicongest.Options{BandwidthBits: rep.Bandwidth, MaxRounds: cfg.MaxRounds, CutSide: side, Arena: arena}
		if plan {
			o.Faults = cfg.Faults
		}
		return o
	}
	run := func(plan bool) (*dicongest.Result, error) {
		factory, _, err := d.alg.Prepare(g, rep.Bandwidth, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return dicongest.Run(g, factory, opts(plan))
	}
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		if err := w.to(p.X, p.Y); err != nil {
			return err
		}
		a0 := heapAllocs()
		res, err := run(true)
		iso.realAllocs += heapAllocs() - a0
		if err != nil {
			return err
		}
		if res.Rounds != p.Rounds || res.Messages != p.Messages {
			return fmt.Errorf("isolated run of (%s,%s) gave %d rounds/%d msgs, report has %d/%d", p.X, p.Y, res.Rounds, res.Messages, p.Rounds, p.Messages)
		}
		iso.realMsgs += res.Messages
		planless := res.Messages
		if cfg.Faults != nil {
			clean, err := run(false)
			if err != nil {
				return err
			}
			planless = clean.Messages
		}
		iso.planlessMsg += planless
		null := diNullFactory(p.Rounds)
		a0 = heapAllocs()
		t0 := time.Now()
		nres, err := dicongest.Run(g, null, opts(false))
		iso.nullRun += time.Since(t0)
		iso.nullAllocs += heapAllocs() - a0
		if err != nil {
			return err
		}
		iso.nullMsgs += nres.Messages
		t0 = time.Now()
		if _, err := dicongest.Run(g, null, opts(true)); err != nil {
			return err
		}
		iso.nullPlanRun += time.Since(t0)
		calls, busy, err := d.oracle(g)
		if err != nil {
			return err
		}
		iso.oracleCalls += calls
		iso.oracle += busy
		if i < transcriptPairs {
			factory, _, err := d.alg.Prepare(g, rep.Bandwidth, cfg.Seed)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, _, err := reduction.VerifyDigraphSimulation(g, side, factory, opts(true)); err != nil {
				return err
			}
			iso.transcript += time.Since(t0)
			iso.transcripts++
		}
	}
	return nil
}

// nullNode broadcasts a constant on every link each round and stops after
// a fixed round count: the simulator's routing, validation, delivery and
// metering cost with no algorithm behind it.
type nullNode[M any] struct {
	out  []M
	last int
}

func (n *nullNode[M]) round(round int) ([]M, bool) { return n.out, round >= n.last }

func (n *nullNode[M]) Output() interface{} { return nil }

type congestNull struct{ nullNode[congest.Message] }

func (n *congestNull) Round(round int, _ []congest.Incoming) ([]congest.Message, bool) {
	return n.round(round)
}

type dicongestNull struct{ nullNode[dicongest.Message] }

func (n *dicongestNull) Round(round int, _ []dicongest.Incoming) ([]dicongest.Message, bool) {
	return n.round(round)
}

// nullFactory builds null programs that run exactly rounds rounds.
func nullFactory(rounds int) congest.Factory {
	return func(l congest.Local) congest.Node {
		n := &congestNull{nullNode[congest.Message]{last: rounds - 1}}
		for _, v := range l.Neighbors {
			n.out = append(n.out, congest.Message{To: v, Payload: 1})
		}
		return n
	}
}

func diNullFactory(rounds int) dicongest.Factory {
	return func(l dicongest.Local) dicongest.Node {
		n := &dicongestNull{nullNode[dicongest.Message]{last: rounds - 1}}
		for _, v := range l.Neighbors {
			n.out = append(n.out, dicongest.Message{To: v, Payload: 1})
		}
		return n
	}
}
