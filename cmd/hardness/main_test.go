package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"congesthard/internal/serve"
)

// TestRunCertifyCancelledContext: an already-cancelled context interrupts
// the sweep immediately, printing the partial report's "interrupted: N of
// M" line and returning an error (which main turns into exit 1) — the
// same contract as -timeout.
func TestRunCertifyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := runCertify(ctx, &buf, "mds", "greedy", 8, "", 0, false, 0, false)
	if err == nil {
		t.Fatal("cancelled certify returned nil error")
	}
	out := buf.String()
	if !strings.Contains(out, "interrupted: 0 of 8 pairs certified") {
		t.Fatalf("missing interrupted line in output:\n%s", out)
	}
}

// TestRunCertifyRejectsNegativeCounts: -pairs -3 used to run the
// exhaustive sweep and -workers -2 was accepted silently; both now fail
// before any report is printed, so main exits 1.
func TestRunCertifyRejectsNegativeCounts(t *testing.T) {
	for _, c := range []struct {
		pairs, workers int
		want           string
	}{{-3, 0, "negative pair count -3"}, {0, -2, "negative worker count -2"}} {
		var buf bytes.Buffer
		err := runCertify(context.Background(), &buf, "mds", "collect", c.pairs, "", 0, false, c.workers, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-pairs %d -workers %d: err %v, want one naming %q", c.pairs, c.workers, err, c.want)
		}
		if strings.Contains(buf.String(), "certify family=") {
			t.Errorf("-pairs %d -workers %d printed a report:\n%s", c.pairs, c.workers, buf.String())
		}
	}
}

// TestRunCertifySignalInterrupt wires runCertify behind
// signal.NotifyContext exactly as main does and delivers a real SIGINT to
// the test process mid-sweep: the run must stop with a partial report
// instead of killing the process or hanging.
func TestRunCertifySignalInterrupt(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		time.Sleep(20 * time.Millisecond)
		syscall.Kill(os.Getpid(), syscall.SIGINT)
	}()
	var buf bytes.Buffer
	// Sampling is capped at the 2^(2K) = 256-pair cube, and 256
	// collect-retry pairs (each a full ARQ collect run) is well over
	// 100ms of work, so the 20ms signal always lands mid-sweep.
	start := time.Now()
	err := runCertify(ctx, &buf, "mds", "collect-retry", 4096, "", 0, false, 0, false)
	if err == nil {
		t.Fatalf("signal-interrupted certify returned nil after %v; output:\n%s", time.Since(start), buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "interrupted:") || !strings.Contains(out, "of 256 pairs certified") {
		t.Fatalf("missing partial-report interrupted line:\n%s", out)
	}
}

// TestRunCertifyTrace: -trace emits one greppable line per simulated
// round, pairs appear in canonical serial order, and the summed rounds
// match the report the same run prints.
func TestRunCertifyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := runCertify(context.Background(), &buf, "mds", "collect", 4, "", 0, false, 0, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var traceLines int
	lastPair := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "trace pair=") {
			continue
		}
		traceLines++
		for _, field := range []string{"x=", "y=", "round=", "sent=", "delivered=", "dropped=", "active="} {
			if !strings.Contains(line, " "+field) {
				t.Fatalf("trace line missing %q: %q", field, line)
			}
		}
		var pair int
		if _, err := fmt.Sscanf(line, "trace pair=%d", &pair); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if pair < lastPair {
			t.Fatalf("trace pair %d after pair %d: -trace must run serially", pair, lastPair)
		}
		lastPair = pair
	}
	if traceLines == 0 {
		t.Fatalf("no trace lines in output:\n%s", out)
	}
	if !strings.Contains(out, "certify family=mds") {
		t.Fatalf("report missing after trace lines:\n%s", out)
	}
}

// TestRunCertifyListMatchesRegistry: -certify list prints exactly the
// shared registry's pairings, keeping the CLI and the job server wired to
// the same set.
func TestRunCertifyListMatchesRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := runCertify(context.Background(), &buf, "list", "", 0, "", 0, false, 0, false); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(strings.TrimSpace(buf.String()))
	reg := serve.DefaultRegistry().List()
	if len(got) != len(reg) {
		t.Fatalf("list printed %d pairings, registry has %d:\n%s", len(got), len(reg), buf.String())
	}
	for i, p := range reg {
		if got[i] != p.Key() {
			t.Fatalf("list line %d = %q, want %q", i, got[i], p.Key())
		}
	}
}
