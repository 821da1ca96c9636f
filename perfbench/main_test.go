package main

import (
	"sort"
	"testing"
	"time"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/lbfamily"
	"congesthard/internal/reduction"
)

func metricNames(res *result) []string {
	var names []string
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func equalNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d metrics %v, BENCHMARK.json names %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emitted %v, BENCHMARK.json names %v", what, got, want)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks that each passes its correctness gate and emits exactly the
// metric names BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var endToEnd, perLayer, declared []string
	for _, m := range bf.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	equalNames(t, "workloads", workloadNames(), declared)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			res, err := w.run(options{seed: 3, measure: 200 * time.Millisecond, trace: trace, log: t.Logf})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			equalNames(t, w.name, metricNames(res), append([]string(nil), want...))
		}
	}
}

// TestTracedNodeForwardsOutput checks that the traced seams leave a run's
// outputs intact: the wrapped collect nodes still produce values that
// algorithms.CollectTotal decodes, and the decision matches the plain run.
func TestTracedNodeForwardsOutput(t *testing.T) {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	x, y := comm.OnesBits(fam.K()), comm.OnesBits(fam.K())
	g, err := fam.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := lbfamily.MeasureStats(fam)
	if err != nil {
		t.Fatal(err)
	}
	bw := congest.DefaultBandwidth(stats.N)
	alg := reduction.CollectMDS(fam)
	clock := &layerClock{}
	decisions := map[bool]bool{}
	for _, traced := range []bool{false, true} {
		a := alg
		if traced {
			a = tracedAlgorithm(alg, clock.beginSweep())
		}
		factory, decide, err := a.Prepare(g, bw, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := congest.Run(g, factory, congest.Options{BandwidthBits: bw})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := algorithms.CollectTotal(res); err != nil {
			t.Fatalf("traced=%v: CollectTotal: %v", traced, err)
		}
		out, err := decide(res)
		if err != nil {
			t.Fatalf("traced=%v: decide: %v", traced, err)
		}
		decisions[traced] = out
	}
	if decisions[true] != decisions[false] || decisions[true] != fam.Func().Eval(x, y) {
		t.Fatalf("decisions plain=%v traced=%v, want %v", decisions[false], decisions[true], fam.Func().Eval(x, y))
	}
	if clock.pairs.Load() != 1 || clock.calls.Load() == 0 {
		t.Fatalf("traced run recorded %d pairs and %d Round calls", clock.pairs.Load(), clock.calls.Load())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}
