// Command benchjson converts `go test -bench` output into a
// machine-readable JSON array, so CI can archive the performance
// trajectory of the tracked benchmarks as BENCH_<sha>.json artifacts, and
// diffs two such artifacts so CI can fail on ns/op regressions between
// consecutive commits.
//
// Usage:
//
//	go test -bench . -benchmem | benchjson -out BENCH_abc1234.json
//	benchjson -in bench.out -out BENCH_abc1234.json
//	benchjson -diff [-max-regress 25] BENCH_old.json BENCH_new.json
//	benchjson -gate -in bench.out
//
// In convert mode, lines that are not benchmark results (headers, PASS,
// ok) are ignored. In diff mode, per-benchmark ns/op and allocs/op deltas
// are printed for every name present in both files (added and removed
// benchmarks are noted but never fail the diff), and the exit status is
// non-zero when any shared benchmark's ns/op regressed by more than
// -max-regress percent, or — with -max-allocs-regress >= 0 — when its
// allocs/op regressed past that gate (a formerly zero-alloc benchmark
// that starts allocating always trips the allocs gate). In gate mode the
// parsed benchmarks are checked against the fixed allocs/op ceilings in
// AllocGates, and the exit status is non-zero when any is exceeded.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	in := flag.String("in", "", "input file (default stdin)")
	out := flag.String("out", "", "output file (default stdout)")
	diff := flag.Bool("diff", false, "diff two BENCH_*.json files: benchjson -diff old.json new.json")
	maxRegress := flag.Float64("max-regress", 25, "with -diff: fail when any shared benchmark's ns/op grew by more than this percentage")
	maxAllocsRegress := flag.Float64("max-allocs-regress", -1, "with -diff: fail when any shared benchmark's allocs/op grew by more than this percentage (negative disables the allocs gate; 0 also fails formerly zero-alloc benchmarks that now allocate)")
	gate := flag.Bool("gate", false, "check the parsed benchmarks against the allocs/op ceilings in AllocGates instead of converting")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff [-max-regress pct] old.json new.json")
			os.Exit(2)
		}
		old, err := readEntries(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cur, err := readEntries(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rows := Diff(old, cur)
		regressed := PrintDiff(os.Stdout, rows, *maxRegress, *maxAllocsRegress)
		if regressed > 0 {
			fmt.Fprintf(os.Stderr, "%d benchmark metric(s) regressed past the gates (ns/op > %.0f%%, allocs gate %.0f%%)\n", regressed, *maxRegress, *maxAllocsRegress)
			os.Exit(1)
		}
		return
	}
	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	entries, err := Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "no benchmark lines found in input")
		os.Exit(1)
	}
	if *gate {
		violations := CheckGates(entries, AllocGates)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		if len(violations) > 0 {
			os.Exit(1)
		}
		return
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// AllocGate caps allocs/op for every benchmark whose name matches Pattern.
type AllocGate struct {
	Pattern   *regexp.Regexp
	MaxAllocs int64
}

// AllocGates are the allocs/op ceilings CI enforces on its bench smoke.
//
//   - Delta-driven exhaustive verification (undirected and directed) must
//     stay O(1) allocs per pair, and both simulator cores O(1) allocs per
//     run, faults off and on (injector setup adds a handful of per-Run
//     allocations, injection itself none per round). 256 pairs at k=2
//     cost a few hundred allocs/op plus per-worker setup (base build and
//     oracle arena, up to 16 workers), well under 8192 on any core count;
//     the rebuild paths cost ~48000+.
//   - The certify sweeps run full CONGEST simulations whose collect
//     programs reuse their node state, Local views and root scratch from
//     each worker's arena, so a pair allocates O(1) objects and a sweep's
//     count is mostly each worker's first pair: at -benchtime 1x, 5.2k to
//     8.2k allocs/op for mds/collect over 256 pairs and 4.2k to 17.7k for
//     hamlb/collect (go1.24, 1 to 16 workers). The ceilings sit at about
//     twice the 16-worker counts, so allocating node state per pair again
//     (~400 allocs per mds pair, ~850 per hamlb pair) or rebuilding every
//     instance fails the gate. The mds-collect pattern also gates the
//     mds-collect-metrics variant.
var AllocGates = []AllocGate{
	{regexp.MustCompile(`^Benchmark(VerifyExhaustive|CongestRunCore|DicongestRunCore)`), 8192},
	{regexp.MustCompile(`^BenchmarkCertifyThroughput/mds-collect`), 16500},
	{regexp.MustCompile(`^BenchmarkCertifyThroughput/hamlb-collect`), 36000},
}

// CheckGates returns one message per entry whose allocs/op exceeds the
// ceiling of a gate its name matches.
func CheckGates(entries []Entry, gates []AllocGate) []string {
	var violations []string
	for _, e := range entries {
		for _, g := range gates {
			if g.Pattern.MatchString(e.Name) && e.AllocsPerOp > g.MaxAllocs {
				violations = append(violations, fmt.Sprintf("allocs/op regression: %s allocates %d/op, gate %s allows %d",
					e.Name, e.AllocsPerOp, g.Pattern, g.MaxAllocs))
			}
		}
	}
	return violations
}

// readEntries loads one BENCH_*.json artifact.
func readEntries(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return entries, nil
}

// DiffRow is one benchmark's trajectory step. Added/Removed rows carry only
// the side that exists; shared rows carry the ns/op and allocs/op deltas
// in percent (positive = slower / more allocations).
type DiffRow struct {
	Name           string
	OldNs          float64
	NewNs          float64
	DeltaPct       float64
	OldAllocs      int64
	NewAllocs      int64
	AllocsDeltaPct float64
	Added          bool
	Removed        bool
}

// Diff matches two artifact entry lists by benchmark name (first
// occurrence wins on duplicates) and returns one row per name, sorted.
func Diff(old, cur []Entry) []DiffRow {
	oldByName := map[string]Entry{}
	for _, e := range old {
		if _, ok := oldByName[e.Name]; !ok {
			oldByName[e.Name] = e
		}
	}
	var rows []DiffRow
	seen := map[string]bool{}
	for _, e := range cur {
		if seen[e.Name] {
			continue
		}
		seen[e.Name] = true
		o, ok := oldByName[e.Name]
		if !ok {
			rows = append(rows, DiffRow{Name: e.Name, NewNs: e.NsPerOp, NewAllocs: e.AllocsPerOp, Added: true})
			continue
		}
		row := DiffRow{
			Name:  e.Name,
			OldNs: o.NsPerOp, NewNs: e.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: e.AllocsPerOp,
		}
		if o.NsPerOp > 0 {
			row.DeltaPct = (e.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		if o.AllocsPerOp > 0 {
			row.AllocsDeltaPct = float64(e.AllocsPerOp-o.AllocsPerOp) / float64(o.AllocsPerOp) * 100
		}
		rows = append(rows, row)
	}
	for _, e := range old {
		if !seen[e.Name] {
			seen[e.Name] = true
			rows = append(rows, DiffRow{Name: e.Name, OldNs: e.NsPerOp, OldAllocs: e.AllocsPerOp, Removed: true})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// PrintDiff renders the rows — ns/op and allocs/op deltas side by side —
// and returns how many shared benchmarks regressed: past maxRegress
// percent ns/op, or (when maxAllocsRegress >= 0) past maxAllocsRegress
// percent allocs/op. A zero-alloc benchmark that starts allocating is
// always an allocs regression when the allocs gate is on.
func PrintDiff(w io.Writer, rows []DiffRow, maxRegress, maxAllocsRegress float64) int {
	regressed := 0
	for _, r := range rows {
		switch {
		case r.Added:
			fmt.Fprintf(w, "%-60s %14s -> %12.1f ns/op  %10s -> %8d allocs/op  (new)\n",
				r.Name, "-", r.NewNs, "-", r.NewAllocs)
		case r.Removed:
			fmt.Fprintf(w, "%-60s %14.1f -> %12s ns/op  %10d -> %8s allocs/op  (removed)\n",
				r.Name, r.OldNs, "-", r.OldAllocs, "-")
		default:
			marker := ""
			if r.DeltaPct > maxRegress {
				marker = "  REGRESSION(ns/op)"
				regressed++
			}
			allocsUp := r.AllocsDeltaPct > maxAllocsRegress ||
				(r.OldAllocs == 0 && r.NewAllocs > 0)
			if maxAllocsRegress >= 0 && allocsUp {
				marker += "  REGRESSION(allocs/op)"
				regressed++
			}
			fmt.Fprintf(w, "%-60s %14.1f -> %12.1f ns/op  %+7.1f%%  %10d -> %8d allocs/op  %+7.1f%%%s\n",
				r.Name, r.OldNs, r.NewNs, r.DeltaPct, r.OldAllocs, r.NewAllocs, r.AllocsDeltaPct, marker)
		}
	}
	return regressed
}

// Parse extracts benchmark entries from `go test -bench` output: lines of
// the form
//
//	BenchmarkName-8   5   123456 ns/op   789 B/op   12 allocs/op
//
// The GOMAXPROCS suffix stays part of the name (it affects the parallel
// verification benchmarks' meaning).
func Parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Name: fields[0], Iterations: iters}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				if e.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("parsing %q: %w", line, err)
				}
				seen = true
			case "B/op":
				if e.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
					return nil, fmt.Errorf("parsing %q: %w", line, err)
				}
			case "allocs/op":
				if e.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
					return nil, fmt.Errorf("parsing %q: %w", line, err)
				}
			}
		}
		if seen {
			entries = append(entries, e)
		}
	}
	return entries, scanner.Err()
}
