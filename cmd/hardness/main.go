// Command hardness is the experiment runner: it regenerates the
// quantitative content of the paper's theorems (see README.md's experiment
// index).
//
// Usage:
//
//	hardness -experiment all          # run everything
//	hardness -experiment E1           # one experiment
//	hardness -list                    # list experiment ids (authoritative)
//	hardness -seed 7 -experiment E7   # reseed the randomized experiments
//
// Certify mode runs the reduction engine: a CONGEST algorithm over the
// input pairs of a lower-bound family with the Alice-Bob cut metered
// (Theorem 1.1 made executable):
//
//	hardness -certify list                      # list family/algorithm pairings
//	hardness -certify mds -alg collect          # exhaustive (K <= 8)
//	hardness -certify mds -alg greedy -pairs 32 # sampled
//	hardness -certify maxcut -alg sampled -pairs 16 -seed 7
//	hardness -certify hamlb -alg collect        # directed (digraph) pairing
//	hardness -certify dir-steiner -alg collect -pairs 8
//
// Sweeps are sharded across GOMAXPROCS cores by default and report the
// same pairs, seeds and first error as a serial walk (bit-identical
// output). -workers caps the shard count; -serial forces the single
// goroutine reference walk:
//
//	hardness -certify mds -alg collect -workers 2
//	hardness -certify mds -alg collect -serial
//
// Certification runs accept a deterministic fault plan (-faults, see the
// faults package for the format), a wall-clock deadline (-timeout) and
// SIGINT/SIGTERM; an interrupted sweep prints the partial report of the
// pairs certified so far. The retransmitting collect stays exact under
// bounded drop rates:
//
//	hardness -certify mds -alg collect-retry -faults drop=0.01,seed=7 -timeout 30s
//
// -trace prints one line per simulated round (pair, round, messages sent,
// delivered, dropped, live nodes); it forces the serial walk and skips
// transcript replays so every pair traces exactly once:
//
//	hardness -certify mds -alg collect -pairs 4 -trace | grep 'trace pair=0 '
//
// Serve mode runs the same pairings as a long-lived HTTP job service with
// bounded concurrency, load shedding and graceful drain (see the serve
// package):
//
//	hardness serve -addr :8080 -workers 2 -queue 16
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"congesthard/internal/aggregate"
	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/apxmaxislb"
	"congesthard/internal/constructions/boundedlb"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/steinerlb"
	"congesthard/internal/cover"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/limits"
	"congesthard/internal/pls"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
	"congesthard/internal/solver"
)

// seed drives every randomized experiment (E4, E7, E9, E18 and the
// sampled verifications); it is printed with the output so runs are
// reproducible by default and variable on demand via -seed.
var seed int64

func main() {
	// "hardness serve" is a subcommand with its own flag set.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	experiment := flag.String("experiment", "all", "experiment id (E1..E18, see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids (the authoritative index)")
	certify := flag.String("certify", "", "certify a family with -alg ('mds', 'mvc', 'maxcut', 'hamlb', 'dir-steiner', or 'list')")
	alg := flag.String("alg", "", "algorithm for -certify (mds: collect|collect-retry|greedy; mvc: matching; maxcut: sampled|exact; hamlb: collect|greedy-path; dir-steiner: collect)")
	pairs := flag.Int("pairs", 0, "sampled (x,y) pairs for -certify; 0 = exhaustive over all 2^(2K) pairs (K <= 8)")
	serial := flag.Bool("serial", false, "run -certify on a single goroutine (the sharded sweep's reference order)")
	workers := flag.Int("workers", 0, "worker goroutines for the -certify sweep; 0 = GOMAXPROCS")
	faultSpec := flag.String("faults", "", "fault plan for -certify, e.g. 'drop=0.01,seed=7' or 'delay=2,crash=3@0,fail=1-2@5' (seed defaults to -seed)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for -certify; an interrupted sweep prints the partial report (0 = none)")
	trace := flag.Bool("trace", false, "print one line per simulated round for -certify (implies -serial; disables transcript replays so each pair is traced once)")
	flag.Int64Var(&seed, "seed", 1, "seed for the randomized experiments")
	flag.Parse()
	if *certify != "" {
		// Ctrl-C / SIGTERM cancels the sweep like -timeout does: the
		// partial report of the pairs certified so far is printed and the
		// process exits 1 (the interrupted-run exit-code contract).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runCertify(ctx, os.Stdout, *certify, *alg, *pairs, *faultSpec, *timeout, *serial, *workers, *trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*experiment, *list); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCertify resolves the family/algorithm pairing in the shared serve
// registry (the CLI and the job server certify exactly the same wirings)
// and runs one sweep under ctx, printing the report — partial if the
// sweep was interrupted — to out.
func runCertify(ctx context.Context, out io.Writer, famName, algName string, pairs int, faultSpec string, timeout time.Duration, serial bool, workers int, trace bool) error {
	reg := serve.DefaultRegistry()
	if famName == "list" {
		for _, p := range reg.List() {
			fmt.Fprintln(out, p.Key())
		}
		return nil
	}
	pairing, ok := reg.Lookup(famName, algName)
	if !ok {
		return fmt.Errorf("unknown pairing %s/%s (try -certify list)", famName, algName)
	}
	run, err := pairing.Build()
	if err != nil {
		return err
	}
	cfg := reduction.Config{
		Pairs:            pairs,
		Seed:             seed,
		TranscriptChecks: 1,
		Serial:           serial,
		Workers:          workers,
	}
	if trace {
		// Round lines from sharded workers would interleave, and a
		// transcript replay simulates its pair a second time (double
		// round lines) — force the serial reference walk and skip the
		// replays so each pair traces exactly once, in canonical order.
		cfg.Serial = true
		cfg.TranscriptChecks = 0
		cfg.Trace = func(idx int, x, y comm.Bits) congest.Tracer {
			return &lineTracer{out: out, idx: idx, x: x, y: y}
		}
	}
	if faultSpec != "" {
		plan, err := faults.Parse(faultSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		if plan.Seed == 0 {
			plan.Seed = seed
		}
		cfg.Faults = plan
		fmt.Fprintf(out, "faults=%s\n", plan)
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	fmt.Fprintf(out, "seed=%d\n", seed)
	started := time.Now()
	rep, err := run(ctx, cfg)
	elapsed := time.Since(started)
	if rep != nil {
		printCertifyReport(out, rep)
		if secs := elapsed.Seconds(); secs > 0 {
			fmt.Fprintf(out, "  elapsed %s (%.0f pairs/s)\n",
				elapsed.Round(time.Millisecond), float64(rep.Completed)/secs)
		}
	}
	if err != nil {
		if rep != nil && rep.Completed < rep.Total {
			fmt.Fprintf(out, "  interrupted: %d of %d pairs certified (%v)\n", rep.Completed, rep.Total, err)
		}
		return err
	}
	return nil
}

// lineTracer prints one greppable line per simulated round:
//
//	trace pair=3 x=0010 y=0010 round=0 sent=24 delivered=24 dropped=0 active=12
//
// It implements congest.Tracer; runCertify wires one per pair via
// reduction.Config.Trace when -trace is set.
type lineTracer struct {
	out  io.Writer
	idx  int
	x, y comm.Bits
}

func (l *lineTracer) ObserveRound(t congest.RoundTrace) {
	fmt.Fprintf(l.out, "trace pair=%d x=%s y=%s round=%d sent=%d delivered=%d dropped=%d active=%d\n",
		l.idx, l.x, l.y, t.Round, t.Sent, t.Delivered, t.Dropped, t.Active)
}

func printCertifyReport(out io.Writer, rep *reduction.Report) {
	mode := "exhaustive"
	if !rep.Exhaustive {
		mode = "sampled"
	}
	fmt.Fprintf(out, "certify family=%s alg=%s exact=%v pairs=%d (%s)\n",
		rep.Family, rep.Algorithm, rep.Exact, len(rep.Pairs), mode)
	fmt.Fprintf(out, "  n=%d |E_cut|=%d K=%d B=%d\n",
		rep.Stats.N, rep.Stats.CutSize, rep.Stats.K, rep.Bandwidth)
	if len(rep.Pairs) <= 16 {
		for _, p := range rep.Pairs {
			fmt.Fprintf(out, "  (x=%s, y=%s) rounds=%-5d cut-bits=%-7d output=%-5v want=%-5v correct=%v\n",
				p.X, p.Y, p.Rounds, p.CutBits, p.Output, p.Want, p.Correct)
		}
	}
	fmt.Fprintf(out, "  correct %d/%d, mismatches %d", len(rep.Pairs)-rep.Mismatches, len(rep.Pairs), rep.Mismatches)
	if rep.Mismatches > 0 && !rep.Exact {
		fmt.Fprintf(out, " (approximate baseline: flagged as not deciding P)")
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  rounds max=%d, cut-bits max=%d; Theorem 1.1 budget 2*T*B*|E_cut| = %d >= CC(f) = %.0f: %v\n",
		rep.MaxRounds, rep.MaxCutBits, rep.SimBits, rep.CCBound, float64(rep.SimBits) >= rep.CCBound)
}

type experimentFunc func() error

func experiments() map[string]experimentFunc {
	return map[string]experimentFunc{
		"E1":  e1MDS,
		"E2":  e2HamPath,
		"E3":  e3HamCycle,
		"E4":  e4TwoECSS,
		"E5":  e5Steiner,
		"E6":  e6MaxCut,
		"E7":  e7MaxCutApprox,
		"E8":  e8Bounded,
		"E9":  e9BoundedReductions,
		"E10": e10ApproxMaxIS,
		"E11": e11ApproxMaxISLinear,
		"E12": e12TwoMDS,
		"E13": e13KMDS,
		"E14": e14NodeSteiner,
		"E15": e15DirSteiner,
		"E16": e16Aggregate,
		"E17": e17Limits,
		"E18": e18PLS,
	}
}

func run(which string, list bool) error {
	exps := experiments()
	ids := make([]string, 0, len(exps))
	for id := range exps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	if list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}
	fmt.Printf("seed=%d\n", seed)
	if which != "all" {
		fn, ok := exps[which]
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", which)
		}
		return fn()
	}
	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		if err := exps[id](); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println()
	}
	return nil
}

func scalingTable(name string, build func(k int) (lbfamily.Stats, comm.Function, error), ks []int) error {
	fmt.Printf("%s scaling: k, n, |E_cut|, K, implied rounds LB\n", name)
	for _, k := range ks {
		stats, f, err := build(k)
		if err != nil {
			return err
		}
		bound, err := lbfamily.ImpliedLowerBound(stats, f)
		if err != nil {
			return err
		}
		fmt.Printf("  k=%-4d n=%-5d cut=%-5d K=%-7d LB=%.1f\n", k, stats.N, stats.CutSize, stats.K, bound)
	}
	return nil
}

// kmdsState caches the verified r-covering collection the Section 4
// experiments (E12-E16) share, so '-experiment all' runs the randomized
// cover search once instead of once per experiment.
var kmdsState struct {
	once sync.Once
	p    kmdslb.Params
	err  error
}

func kmdsParams() (kmdslb.Params, error) {
	kmdsState.once.Do(func() {
		c, err := cover.Find(4, 12, 2, 7, 500)
		if err != nil {
			kmdsState.err = err
			return
		}
		kmdsState.p = kmdslb.Params{Collection: c, R: 2}
	})
	return kmdsState.p, kmdsState.err
}

func e1MDS() error {
	fam, err := mdslb.New(2)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (k=2)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	return scalingTable("MDS (Thm 2.1)", func(k int) (lbfamily.Stats, comm.Function, error) {
		f, err := mdslb.New(k)
		if err != nil {
			return lbfamily.Stats{}, nil, err
		}
		stats, err := lbfamily.MeasureStats(f)
		return stats, f.Func(), err
	}, []int{2, 4, 8, 16, 32})
}

func e2HamPath() error {
	fam, err := hamlb.New(2)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (k=2)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	return scalingTable("Hamiltonian path (Thm 2.2)", func(k int) (lbfamily.Stats, comm.Function, error) {
		f, err := hamlb.New(k)
		if err != nil {
			return lbfamily.Stats{}, nil, err
		}
		stats, err := lbfamily.MeasureStats(f)
		return stats, f.Func(), err
	}, []int{2, 4, 8, 16})
}

func e3HamCycle() error {
	c, err := hamlb.NewCycle(2)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		d, err := c.Build(x, y)
		if err != nil {
			return err
		}
		got, err := c.Predicate(d)
		if err != nil {
			return err
		}
		if want := x.Intersects(y); got != want {
			return fmt.Errorf("Claim 2.6 violated at (x=%s, y=%s): cycle=%v intersect=%v", x, y, got, want)
		}
		checked++
	}
	stats, err := lbfamily.MeasureStats(c)
	if err != nil {
		return err
	}
	fmt.Printf("Hamiltonian cycle family (Thm 2.3): Claim 2.6 holds on %d sampled pairs; n=%d, cut=%d\n",
		checked, stats.N, stats.CutSize)
	return nil
}

func e4TwoECSS() error {
	rng := rand.New(rand.NewSource(seed))
	g, cycle := graph.HamiltonianGnp(10, 0.2, rng)
	ok, err := solver.HasTwoECSSWithEdges(g, g.N())
	if err != nil {
		return err
	}
	fmt.Printf("2-ECSS (Thm 2.5 / Claim 2.7): planted Hamiltonian graph n=%d m=%d has an n-edge 2-ECSS: %v (planted cycle length %d)\n",
		g.N(), g.M(), ok, len(cycle))
	if !ok {
		return fmt.Errorf("claim 2.7 failed on a Hamiltonian graph")
	}
	return nil
}

func e5Steiner() error {
	fam, err := steinerlb.New(2)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(1, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	tree, err := fam.WitnessSteinerTree(x, x)
	if err != nil {
		return err
	}
	_, ok := solver.IsSteinerTree(g, fam.Terminals(), tree)
	fmt.Printf("Steiner family (Thm 2.7): witness tree of %d edges (target %d), valid: %v\n",
		len(tree), fam.TargetEdges(), ok)
	set := fam.DominatingSetFromSteinerTree(tree)
	inner, err := fam.MDS.Build(x, x)
	if err != nil {
		return err
	}
	fmt.Printf("converse extraction: %d vertices dominate the MDS graph: %v\n",
		len(set), solver.IsDominatingSet(inner, set))
	return nil
}

func e6MaxCut() error {
	fam, err := maxcutlb.New(2)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(2, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	best, _, err := solver.MaxCut(g)
	if err != nil {
		return err
	}
	fmt.Printf("max-cut family (Thm 2.8): intersecting optimum %d, target M = %d\n", best, fam.Target())
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	best0, _, err := solver.MaxCut(g0)
	if err != nil {
		return err
	}
	fmt.Printf("disjoint optimum %d < M: %v\n", best0, best0 < fam.Target())
	return nil
}

func e7MaxCutApprox() error {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("Thm 2.9: sampled (1-eps) max-cut vs exact collection")
	for _, n := range []int{12, 16, 20} {
		g := graph.Gnp(n, 0.5, rng)
		for !g.IsConnected() {
			g = graph.Gnp(n, 0.5, rng)
		}
		opt, _, err := solver.MaxCut(g)
		if err != nil {
			return err
		}
		res, err := algorithms.MaxCutApprox(g, 0.5, rng)
		if err != nil {
			return err
		}
		fmt.Printf("  n=%-4d opt=%-5d achieved=%-5d ratio=%.3f rounds=%d\n",
			n, opt, res.AchievedValue, float64(res.AchievedValue)/float64(opt), res.Rounds)
	}
	return nil
}

func e8Bounded() error {
	fam, err := boundedlb.NewFamily(2, 3)
	if err != nil {
		return err
	}
	fmt.Print("MVC base family exhaustive verification (k=2)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(0, true)
	inst, err := fam.BuildInstance(x, x)
	if err != nil {
		return err
	}
	g := inst.Result.Graph
	fmt.Printf("derived bounded-degree instance: n'=%d, maxDeg=%d (<=5), cut=%d, alpha-shift=%d\n",
		g.N(), g.MaxDegree(), inst.Result.CutSize, inst.Result.AlphaShift)
	return nil
}

func e9BoundedReductions() error {
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.RandomRegular(12, 3, rng)
	if err != nil {
		return err
	}
	reduced := boundedlb.MDSReduction(g)
	fmt.Printf("MDS reduction (Thm 3.3): n=%d maxDeg=%d -> n=%d maxDeg=%d (<= 2x)\n",
		g.N(), g.MaxDegree(), reduced.N(), reduced.MaxDegree())
	if reduced.MaxDegree() > 2*g.MaxDegree() {
		return fmt.Errorf("degree blow-up in MDS reduction")
	}
	spanner := boundedlb.SpannerReduction(g)
	fmt.Printf("2-spanner reduction (Thm 3.4): n=%d maxDeg=%d -> n=%d maxDeg=%d\n",
		g.N(), g.MaxDegree(), spanner.N(), spanner.MaxDegree())
	return nil
}

func e10ApproxMaxIS() error {
	fam, err := apxmaxislb.New(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(0, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	yes, _, err := solver.MaxWeightIndependentSet(g)
	if err != nil {
		return err
	}
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	no, _, err := solver.MaxWeightIndependentSet(g0)
	if err != nil {
		return err
	}
	fmt.Printf("code-gadget MaxIS (Thm 4.3): YES=%d (=%d), NO=%d (<=%d), gap ratio %.4f -> 7/8\n",
		yes, fam.YesWeight(), no, fam.NoWeight(), float64(fam.NoWeight())/float64(fam.YesWeight()))
	return nil
}

func e11ApproxMaxISLinear() error {
	fam, err := apxmaxislb.NewLinear(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		return err
	}
	x := comm.NewBits(2)
	x.Set(0, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	alpha, _, err := solver.MaxIndependentSetSize(g)
	if err != nil {
		return err
	}
	fmt.Printf("linear MaxIS variant (Thm 4.2): alpha=%d, NO size=%d, gap ratio %.4f -> 5/6\n",
		alpha, fam.NoSize(), float64(fam.NoSize())/float64(alpha))
	return nil
}

func e12TwoMDS() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewTwoMDS(p)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (T=4)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(1, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	yes, err := fam.GapWeights(g)
	if err != nil {
		return err
	}
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	no, err := fam.GapWeights(g0)
	if err != nil {
		return err
	}
	fmt.Printf("2-MDS gap (Thm 4.4): YES weight=%d, NO weight=%d (> r=2)\n", yes, no)
	return nil
}

func e13KMDS() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewKMDS(p, 3)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 sampled verification (k=3, T=4)... ")
	if err := lbfamily.VerifySampled(fam, rand.New(rand.NewSource(seed)), 20); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(2, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	ok, err := fam.Predicate(g)
	if err != nil {
		return err
	}
	fmt.Printf("k-MDS (Thm 4.5): subdivided instance n=%d, weight-2 3-dominating set on intersecting inputs: %v\n",
		g.N(), ok)
	return nil
}

func e14NodeSteiner() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewNodeSteiner(p)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (T=4)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(2, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	yes, err := solver.NodeWeightedSteinerEnum(g, fam.Terminals())
	if err != nil {
		return err
	}
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	no, err := solver.NodeWeightedSteinerEnum(g0, fam.Terminals())
	if err != nil {
		return err
	}
	fmt.Printf("node-Steiner gap (Thm 4.6): YES weight=%d, NO weight=%d (> r=%d)\n", yes, no, p.R)
	return nil
}

func e15DirSteiner() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewDirSteiner(p)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (T=4, directed)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(0, true)
	d, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	ok, err := fam.Predicate(d)
	if err != nil {
		return err
	}
	fmt.Printf("directed Steiner (Thm 4.7): weight-2 tree rooted at R on intersecting inputs: %v\n", ok)
	return nil
}

func e16Aggregate() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewRestricted(p)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(0, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	side := make([]byte, g.N())
	alice, bob := fam.Sides()
	for _, v := range alice {
		side[v] = aggregate.OwnerAlice
	}
	for _, v := range bob {
		side[v] = aggregate.OwnerBob
	}
	for _, v := range fam.SharedElements() {
		side[v] = aggregate.OwnerShared
	}
	res, err := aggregate.SimulateTwoParty(g, aggregate.GreedyDominatingSet{}, side, 16)
	if err != nil {
		return err
	}
	perRoundPerElement := float64(res.TwoPartyBits) / float64(res.Rounds) / float64(len(fam.SharedElements()))
	fmt.Printf("aggregate simulation (Thm 4.8): %d rounds, %d two-party bits, %.1f bits/round/element (O(log n))\n",
		res.Rounds, res.TwoPartyBits, perRoundPerElement)
	return nil
}

func e17Limits() error {
	fam, err := mdslb.New(2)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(3, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	res, err := limits.TwoApproxMDS(g, fam.AliceSide())
	if err != nil {
		return err
	}
	fmt.Printf("Claim 5.8 on the MDS family: ratio %.3f (<=2) using %d bits\n", res.Ratio, res.Bits)
	cutFam, err := maxcutlb.New(2)
	if err != nil {
		return err
	}
	gc, err := cutFam.Build(x, x)
	if err != nil {
		return err
	}
	cutRes, err := limits.WeightedMaxCut23(gc, cutFam.AliceSide())
	if err != nil {
		return err
	}
	fmt.Printf("Claim 5.5 on the max-cut family: ratio %.3f (>=2/3) using %d bits\n", cutRes.Ratio, cutRes.Bits)
	return nil
}

func e18PLS() error {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Gnp(16, 0.4, rng)
	for !g.IsConnected() {
		g = graph.Gnp(16, 0.4, rng)
	}
	inst := pls.NewInstance(g)
	for _, e := range g.Edges() {
		if err := inst.MarkH(e.U, e.V); err != nil {
			return err
		}
	}
	inst.S, inst.T = 0, g.N()-1
	inst.K = 1
	schemes := []pls.Scheme{
		pls.Connectivity{}, pls.STConnectivity{}, pls.CycleContainment{},
		pls.WdistAtLeast{}, pls.MatchingAtLeast{},
	}
	maxBits, proved := 0, 0
	for _, s := range schemes {
		labels, ok, err := s.Prove(inst)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		proved++
		if !pls.Accepts(s, inst, labels) {
			return fmt.Errorf("%s rejected honest labels", s.Name())
		}
		if bits := pls.ProofBits(inst, labels); bits > maxBits {
			maxBits = bits
		}
	}
	fmt.Printf("proof labeling schemes (Claims 5.12-5.13): %d/%d schemes proved, max proof %d bits\n",
		proved, len(schemes), maxBits)
	return nil
}
