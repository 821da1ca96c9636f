package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode and the
// tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default exclusive method).
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	var q [3]float64
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{data[0], data[0], data[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q
}

// steadiness runs each named workload runs times as child processes
// (seeds 1..runs) and prints, per end-to-end metric, the median,
// quartiles, quartile spread and worst deviation as shares of the
// median, next to the bound BENCHMARK.json fixes (when it is found in
// the working directory).
func steadiness(name string, runs, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{name}
	if name == "all" {
		names = workloadNames()
	}
	bounds := map[string]float64{}
	if bf, err := readBenchmarkFile("BENCHMARK.json"); err == nil {
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	for _, w := range names {
		if _, ok := findWorkload(w); !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		values := map[string][]float64{}
		for seed := 1; seed <= runs; seed++ {
			var out bytes.Buffer
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w, seed, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		var keys []string
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%s (%d runs of %ds)\n", w, runs, seconds)
		fmt.Printf("  %-16s %12s %12s %12s %8s %8s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "worst", "bound")
		for _, k := range keys {
			q := quartiles(values[k])
			med := median(append([]float64(nil), values[k]...))
			worst := 0.0
			for _, v := range values[k] {
				worst = math.Max(worst, math.Abs(v-med))
			}
			flag := ""
			if b, ok := bounds[k]; ok && med != 0 && (q[2]-q[0])/math.Abs(med) > b/3 {
				flag = "  over bound/3"
			}
			fmt.Printf("  %-16s %12.4g %12.4g %12.4g %8.3f %8.3f %6.2f%s\n", k, med, q[0], q[2],
				(q[2]-q[0])/math.Abs(med), worst/math.Abs(med), bounds[k], flag)
		}
	}
	return nil
}
