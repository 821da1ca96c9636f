package main

import (
	"encoding/hex"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
)

// layerClock accumulates the spans the traced run records at the
// program's public seams, summed over every traced sweep (nanoseconds).
// Workers of one sweep and concurrent sweeps add into it atomically;
// each pair's spans are gathered privately and flushed once.
type layerClock struct {
	pairs, prepare, init, round, final, decide, run, span atomic.Int64
	// calls and finalCalls count the timed Round calls, so the spans'
	// own cost can be taken back out (see calibrateSpans).
	calls, finalCalls atomic.Int64
	// dropped counts messages the fault plan dropped (RoundTrace.Dropped).
	dropped atomic.Int64
	// sweeps, sweepSetup (Σ sweep entry to first Prepare) and sweepCost
	// (Σ sweep wall × workers) describe the sweep machinery.
	sweeps, sweepSetup, sweepCost atomic.Int64
}

// pairSpans is one pair's spans, gathered on the worker goroutine that
// certifies it.
type pairSpans struct {
	start                                     time.Duration
	prepare, init, round, final, decide, span time.Duration
	calls, finalCalls                         int64
}

// epoch anchors the span clock: time.Since reads only the monotonic
// clock, about half the cost of time.Now.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// sweepSpan tracks one traced sweep.
type sweepSpan struct {
	clock        *layerClock
	start        time.Duration
	firstPrepare atomic.Int64 // ns after start; -1 until the first Prepare
}

func (c *layerClock) reset() {
	for _, v := range []*atomic.Int64{&c.pairs, &c.prepare, &c.init, &c.round, &c.final, &c.decide, &c.run, &c.span, &c.calls, &c.finalCalls, &c.dropped, &c.sweeps, &c.sweepSetup, &c.sweepCost} {
		v.Store(0)
	}
}

func (c *layerClock) beginSweep() *sweepSpan {
	s := &sweepSpan{clock: c, start: now()}
	s.firstPrepare.Store(-1)
	return s
}

func (s *sweepSpan) prepared(at time.Duration) {
	s.firstPrepare.CompareAndSwap(-1, int64(at-s.start))
}

func (s *sweepSpan) end(workers, pairs int) {
	wall := now() - s.start
	c := s.clock
	c.sweeps.Add(1)
	c.sweepCost.Add(int64(wall) * int64(workers))
	if fp := s.firstPrepare.Load(); fp >= 0 && pairs > 0 {
		c.sweepSetup.Add(fp)
	}
}

func (c *layerClock) flush(p *pairSpans) {
	c.pairs.Add(1)
	c.prepare.Add(int64(p.prepare))
	c.init.Add(int64(p.init))
	c.round.Add(int64(p.round))
	c.final.Add(int64(p.final))
	c.calls.Add(p.calls)
	c.finalCalls.Add(p.finalCalls)
	c.decide.Add(int64(p.decide))
	c.run.Add(int64(p.span - p.prepare - p.decide))
	c.span.Add(int64(p.span))
}

// roundTracer is the Config.Trace hook: every pair's rounds report their
// dropped messages into the clock.
func (c *layerClock) roundTracer(int, comm.Bits, comm.Bits) congest.Tracer {
	return (*dropCounter)(c)
}

type dropCounter layerClock

func (d *dropCounter) ObserveRound(t congest.RoundTrace) {
	if t.Dropped != 0 {
		d.dropped.Add(int64(t.Dropped))
	}
}

// roundNode is the Node interface both simulators share in shape.
type roundNode[I, M any] interface {
	Round(round int, inbox []I) ([]M, bool)
	Output() interface{}
}

// tracedNode times each Round call of the node program it wraps; the
// calls that return done are where the collect programs finish.
type tracedNode[I, M any] struct {
	inner roundNode[I, M]
	spans *pairSpans
}

func (n *tracedNode[I, M]) Round(round int, inbox []I) ([]M, bool) {
	t0 := now()
	out, done := n.inner.Round(round, inbox)
	d := now() - t0
	n.spans.round += d
	n.spans.calls++
	if done {
		n.spans.final += d
		n.spans.finalCalls++
	}
	return out, done
}

// Output forwards the wrapped program's output unchanged, so decoders
// such as algorithms.CollectTotal still see the program's own type.
func (n *tracedNode[I, M]) Output() interface{} { return n.inner.Output() }

// traceSeams wraps one pair's factory and decide closure with spans; the
// prepare span has already been measured.
func traceSeams[L any, N any, R any](s *sweepSpan, spans *pairSpans, factory func(L) N, decide func(R) (bool, error), wrap func(N) N) (func(L) N, func(R) (bool, error)) {
	traced := func(l L) N {
		t0 := now()
		n := factory(l)
		spans.init += now() - t0
		return wrap(n)
	}
	tracedDecide := func(res R) (bool, error) {
		t0 := now()
		out, err := decide(res)
		t1 := now()
		spans.decide = t1 - t0
		spans.span = t1 - spans.start
		s.clock.flush(spans)
		return out, err
	}
	return traced, tracedDecide
}

// tracedAlgorithm wraps alg's Prepare, the returned factory, every
// Node.Round and the decide closure with spans recorded into s.
func tracedAlgorithm(alg reduction.Algorithm, s *sweepSpan) reduction.Algorithm {
	inner := alg.Prepare
	alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
		t0 := now()
		s.prepared(t0)
		factory, decide, err := inner(g, bandwidth, seed)
		if err != nil {
			return nil, nil, err
		}
		spans := &pairSpans{start: t0, prepare: now() - t0}
		f, d := traceSeams(s, spans, factory, decide, func(n congest.Node) congest.Node {
			return &tracedNode[congest.Incoming, congest.Message]{inner: n, spans: spans}
		})
		return f, d, nil
	}
	return alg
}

// tracedDigraphAlgorithm is tracedAlgorithm for directed pairings.
func tracedDigraphAlgorithm(alg reduction.DigraphAlgorithm, s *sweepSpan) reduction.DigraphAlgorithm {
	inner := alg.Prepare
	alg.Prepare = func(d *graph.Digraph, bandwidth int, seed int64) (dicongest.Factory, func(*dicongest.Result) (bool, error), error) {
		t0 := now()
		s.prepared(t0)
		factory, decide, err := inner(d, bandwidth, seed)
		if err != nil {
			return nil, nil, err
		}
		spans := &pairSpans{start: t0, prepare: now() - t0}
		f, dec := traceSeams(s, spans, factory, decide, func(n dicongest.Node) dicongest.Node {
			return &tracedNode[dicongest.Incoming, dicongest.Message]{inner: n, spans: spans}
		})
		return f, dec, nil
	}
	return alg
}

// nopNode is a Round that does nothing, for calibrating spans.
type nopNode struct{}

func (nopNode) Round(int, []congest.Incoming) ([]congest.Message, bool) { return nil, false }
func (nopNode) Output() interface{}                                     { return nil }

// calibrateSpans measures what timing one Round call costs: total is the
// time a traced call adds over a plain one, inside the part its own span
// records. Each is the least of several trials.
func calibrateSpans() (total, inside time.Duration) {
	const calls = 100000
	total, inside = time.Hour, time.Hour
	for trial := 0; trial < 5; trial++ {
		spans := &pairSpans{}
		var traced, plain congest.Node = &tracedNode[congest.Incoming, congest.Message]{inner: nopNode{}, spans: spans}, nopNode{}
		t0 := now()
		for i := 0; i < calls; i++ {
			traced.Round(i, nil)
		}
		t1 := now()
		for i := 0; i < calls; i++ {
			plain.Round(i, nil)
		}
		t2 := now()
		total = min(total, ((t1-t0)-(t2-t1))/calls)
		inside = min(inside, spans.round/calls)
	}
	return total, inside
}

// layerReport turns the traced spans and the isolated layer runs into the
// per-layer metrics. It splits the traced per-pair time (sweep wall ×
// workers ÷ pairs) into layer self-times, the spans' own cost, and the
// sweep machinery's residual:
//
//	lbfamily    toggles/pair × ApplyBit time, both from the toggle replay
//	algorithms  Prepare + node init + Round spans − the oracle's share
//	solver      the oracle run alone on each pair's instance
//	congest     Run's time outside the node programs, less the faults' share
//	faults      null run with the plan − null run without it
//	decide      the decide closure's span
//	trace       the calibrated cost of the Round spans themselves
//	residual    the rest: toggling, claiming, pair reports, scheduling
func layerReport(res *result, clock *layerClock, iso isolated, refPairs []reduction.PairReport, plainPPS, tracedPPS float64) {
	spanTotal, spanInside := calibrateSpans()
	pairs := float64(max(clock.pairs.Load(), 1))
	perPair := func(ns int64) float64 { return float64(ns) / pairs / 1e3 }
	ip := float64(max(iso.pairs, 1))
	isoUS := func(d time.Duration) float64 { return float64(d) / ip / 1e3 }

	var rounds, msgs float64
	for i := range refPairs {
		rounds += float64(refPairs[i].Rounds)
		msgs += float64(refPairs[i].Messages)
	}
	rp := float64(max(len(refPairs), 1))

	calls := clock.calls.Load()
	roundNS := clock.round.Load() - calls*int64(spanInside)
	finalNS := clock.final.Load() - clock.finalCalls.Load()*int64(spanInside)
	toggleNS := float64(iso.toggleTime) / float64(max(iso.toggleRuns, 1))
	togglesPerPair := float64(iso.toggles) / ip
	faultsUS := isoUS(iso.nullPlanRun - iso.nullRun)
	oracleUS := isoUS(iso.oracle)
	traceUS := perPair(calls * int64(spanTotal))
	lbfamilySelf := togglesPerPair * toggleNS / 1e3
	algorithmsSelf := perPair(clock.prepare.Load()+clock.init.Load()+roundNS) - oracleUS
	congestSelf := perPair(clock.run.Load()-clock.init.Load()-clock.round.Load()-calls*int64(spanTotal-spanInside)) - faultsUS
	decideUS := perPair(clock.decide.Load())
	tracedUS := perPair(clock.sweepCost.Load())
	residual := tracedUS - (lbfamilySelf + algorithmsSelf + oracleUS + congestSelf + faultsUS + decideUS + traceUS)

	res.set("lbfamily.build_base_ms", float64(iso.buildBase)/float64(max(iso.bases, 1))/1e6, "ms")
	res.set("lbfamily.toggles_per_pair", togglesPerPair, "count")
	res.set("lbfamily.apply_bit_ns", toggleNS, "ns")
	res.set("lbfamily.self_us_per_pair", lbfamilySelf, "us")

	res.set("congest.rounds_per_pair", rounds/rp, "count")
	res.set("congest.msgs_per_pair", msgs/rp, "count")
	res.set("congest.null_run_us_per_pair", isoUS(iso.nullRun), "us")
	res.set("congest.ns_per_msg", float64(iso.nullRun)/float64(max(iso.nullMsgs, 1)), "ns")
	res.set("congest.self_us_per_pair", congestSelf, "us")

	res.set("faults.overhead_us_per_pair", faultsUS, "us")
	res.set("faults.dropped_per_pair", float64(clock.dropped.Load())/pairs, "count")
	res.set("faults.msg_inflation", float64(iso.realMsgs)/float64(max(iso.planlessMsg, 1)), "ratio")

	res.set("algorithms.prepare_us_per_pair", perPair(clock.prepare.Load()), "us")
	res.set("algorithms.node_init_us_per_pair", perPair(clock.init.Load()), "us")
	res.set("algorithms.round_us_per_pair", perPair(roundNS), "us")
	res.set("algorithms.final_round_us_per_pair", perPair(finalNS), "us")
	res.set("algorithms.allocs_per_pair", (float64(iso.realAllocs)-float64(iso.nullAllocs))/ip, "count")
	res.set("algorithms.self_us_per_pair", algorithmsSelf, "us")

	res.set("solver.oracle_us_per_pair", oracleUS, "us")
	res.set("solver.oracle_calls_per_pair", float64(iso.oracleCalls)/ip, "count")

	res.set("reduction.decide_us_per_pair", decideUS, "us")
	res.set("reduction.sweep_setup_ms", float64(clock.sweepSetup.Load())/float64(max(clock.sweeps.Load(), 1))/1e6, "ms")
	res.set("reduction.transcript_check_ms", float64(iso.transcript)/float64(max(iso.transcripts, 1))/1e6, "ms")
	res.set("reduction.worker_util", float64(clock.span.Load())/float64(max(clock.sweepCost.Load(), 1)), "ratio")
	res.set("reduction.residual_us_per_pair", residual, "us")
	res.set("reduction.traced_us_per_pair", tracedUS, "us")

	res.set("trace.span_us_per_pair", traceUS, "us")
	res.set("trace.overhead_ratio", tracedPPS/plainPPS, "ratio")
}

// layerTable logs the self-time split of the traced per-pair time,
// largest layer first.
func layerTable(o options, res *result) {
	type row struct {
		name string
		us   float64
	}
	m := res.Metrics
	rows := []row{
		{"lbfamily", m["lbfamily.self_us_per_pair"].Value},
		{"congest", m["congest.self_us_per_pair"].Value},
		{"faults", m["faults.overhead_us_per_pair"].Value},
		{"algorithms", m["algorithms.self_us_per_pair"].Value},
		{"solver", m["solver.oracle_us_per_pair"].Value},
		{"reduction.decide", m["reduction.decide_us_per_pair"].Value},
		{"reduction.residual", m["reduction.residual_us_per_pair"].Value},
		{"trace spans", m["trace.span_us_per_pair"].Value},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].us > rows[j].us })
	total := m["reduction.traced_us_per_pair"].Value
	o.log("layer self-time per pair (traced total %.1f us):", total)
	for _, r := range rows {
		o.log("  %-20s %9.1f us  %5.1f%%", r.name, r.us, 100*r.us/total)
	}
}

// traceCertify is a certify workload's traced run: half the time
// untraced, half traced (their pairs/s ratio is the trace overhead), then
// the isolated layer runs and a short pass through the job server.
func traceCertify(o options, spec certifySpec, runner serve.Runner, cfg reduction.Config, ref refCheck, refRep *reduction.Report) (*result, error) {
	tg, err := newTarget(spec.key)
	if err != nil {
		return nil, err
	}
	plain := certifyLoop(runner, cfg, ref, o.measure/2)
	clock := &layerClock{}
	traced := certifyLoop(tg.tracedRunner(clock), cfg, ref, o.measure/2)
	o.log("traced: %d sweeps, %d failed (digest %s)", traced.attempted, traced.failed, hex.EncodeToString(ref.digest[:]))
	iso, err := tg.isolate(cfg, refRep)
	if err != nil {
		return nil, fmt.Errorf("isolated layer runs: %w", err)
	}
	res := &result{}
	layerReport(res, clock, iso, refRep.Pairs, plain.pairsPerS, traced.pairsPerS)
	layerTable(o, res)
	family, alg := splitKey(spec.key)
	probe, err := serveProbe(serve.JobRequest{Family: family, Alg: alg, Seed: cfg.Seed, Faults: planString(cfg)}, ref)
	if err != nil {
		return nil, err
	}
	probe.layers(res)
	res.Attempted = plain.attempted + traced.attempted + probe.attempted
	res.Failed = plain.failed + traced.failed + probe.failed
	res.Correct = res.Failed == 0
	return res, nil
}

func planString(cfg reduction.Config) string {
	if cfg.Faults == nil {
		return ""
	}
	return cfg.Faults.String()
}
