// Command perfbench is the repository's benchmark. It drives the public
// entry points of the certifier from one process — reduction.CertifyCtx
// and CertifyDigraphCtx through the serve.DefaultRegistry pairings, and
// serve.New over loopback HTTP — on four closed-loop workloads, checks
// every output against a serial reference sweep, and prints one JSON
// result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload mds-collect --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload hamlb-collect --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --steady 5 --workload all --seconds 10
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured from outside the program by
// spans at its public seams and by isolated runs of each layer.
// --steady N runs each workload N times as child processes with seeds
// 1..N and prints the median, quartiles and worst deviation of every
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// options are one run's parameters.
type options struct {
	seed    int64
	measure time.Duration
	trace   bool
	// log receives human-readable progress and the layer table; the
	// result line alone goes to stdout.
	log func(format string, args ...any)
}

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	run  func(o options) (*result, error)
}

func workloads() []workload {
	return []workload{
		{"mds-collect", certifyWorkload(certifySpec{key: "mds/collect"})},
		{"hamlb-collect", certifyWorkload(certifySpec{key: "hamlb/collect"})},
		{"mds-retry-faults", certifyWorkload(certifySpec{key: "mds/collect-retry", faults: true})},
		{"serve-mix", serveMixWorkload},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\" with --steady")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	steady := flag.Int("steady", 0, "run each workload this many times (seeds 1..N) and print spreads")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*name, *steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := w.run(options{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the midpoint median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
