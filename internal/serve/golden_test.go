package serve_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"congesthard/internal/faults"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/report_digests.txt from the current code")

const goldenPath = "testdata/report_digests.txt"

// goldenFaults is the fault plan of the faulted golden runs.
const goldenFaults = "drop=0.05,delay=2,seed=7"

// goldenRun is one certification whose full report is pinned by digest.
type goldenRun struct {
	key    string // pairing key, "family/alg"
	serial bool
	force  bool   // Config.ForceRebuild
	plan   string // fault plan spec, "" for fault-free
}

func (r goldenRun) name() string {
	mode := "sharded"
	if r.serial {
		mode = "serial"
	}
	name := r.key + "/" + mode
	if r.force {
		name += "/rebuild"
	}
	if r.plan != "" {
		name += "/faults"
	}
	return name
}

// goldenRuns lists every pinned run: each registry pairing sharded and
// serial, the two collect pairings again with every instance rebuilt, and
// the two MDS collect pairings under a fault plan.
func goldenRuns(reg *serve.Registry) []goldenRun {
	var runs []goldenRun
	for _, serial := range []bool{false, true} {
		for _, p := range reg.List() {
			runs = append(runs, goldenRun{key: p.Key(), serial: serial})
		}
		for _, key := range []string{"mds/collect", "hamlb/collect"} {
			runs = append(runs, goldenRun{key: key, serial: serial, force: true})
		}
		for _, key := range []string{"mds/collect", "mds/collect-retry"} {
			runs = append(runs, goldenRun{key: key, serial: serial, plan: goldenFaults})
		}
	}
	return runs
}

// reportDigest is the SHA-256 of a report's every field (each PairReport
// and the aggregates) plus the error text, "<nil>" for success.
func reportDigest(rep *reduction.Report, err error) string {
	h := sha256.New()
	if rep != nil {
		fmt.Fprintf(h, "%+v\n", *rep)
	}
	fmt.Fprintf(h, "err=%v\n", err)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenReportDigests pins the exact report of every registry pairing
// at exhaustive K, seed 1 and four transcript checks. Any change to the
// sweep machinery, simulators or algorithms that alters a single pair's
// measurements, the aggregates or the returned error shows up here.
// Regenerate with `go test ./internal/serve -run TestGoldenReportDigests
// -update-golden` only when a report is meant to change.
func TestGoldenReportDigests(t *testing.T) {
	plan, err := faults.Parse(goldenFaults)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.DefaultRegistry()
	runners := map[string]serve.Runner{}
	got := map[string]string{}
	for _, run := range goldenRuns(reg) {
		runner, ok := runners[run.key]
		if !ok {
			family, alg, _ := strings.Cut(run.key, "/")
			p, found := reg.Lookup(family, alg)
			if !found {
				t.Fatalf("pairing %s not registered", run.key)
			}
			if runner, err = p.Build(); err != nil {
				t.Fatalf("%s: build: %v", run.key, err)
			}
			runners[run.key] = runner
		}
		cfg := reduction.Config{Seed: 1, TranscriptChecks: 4, Serial: run.serial, ForceRebuild: run.force}
		if run.plan != "" {
			cfg.Faults = plan
		}
		rep, err := runner(context.Background(), cfg)
		if rep == nil || !rep.Exhaustive || rep.Completed != rep.Total {
			t.Errorf("%s: want a complete exhaustive report, got %+v (err %v)", run.name(), rep, err)
		}
		got[run.name()] = reportDigest(rep, err)
	}

	if *updateGolden {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, digest := range got {
		if want[name] != digest {
			t.Errorf("%s: report digest %s, golden %s", name, digest, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest has no run", name)
		}
	}
}
