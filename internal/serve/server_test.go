package serve_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"congesthard/internal/congest"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
	"congesthard/internal/serve/client"
)

// slowPairing certifies nothing: each "pair" is a 4ms sleep, cancellable
// between pairs, returning a partial report on cancellation exactly like
// CertifyCtx. cfg.Pairs picks the pair count (default 100, ~400ms) — the
// controllable-duration job the queue-full, deadline and drain tests use.
func slowPairing() serve.Pairing {
	return serve.Pairing{
		Family: "chaos", Alg: "slow", Params: "synthetic",
		Build: func() (serve.Runner, error) {
			return func(ctx context.Context, cfg reduction.Config) (*reduction.Report, error) {
				total := cfg.Pairs
				if total == 0 {
					total = 100
				}
				rep := &reduction.Report{Family: "chaos", Algorithm: "slow", Total: total}
				for i := 0; i < total; i++ {
					select {
					case <-ctx.Done():
						rep.Completed = i
						return rep, &lbfamily.CancelledError{Completed: i, Total: total, Err: ctx.Err()}
					case <-time.After(4 * time.Millisecond):
					}
					rep.Completed = i + 1
					if cfg.Progress != nil {
						cfg.Progress(i+1, total)
					}
				}
				return rep, nil
			}, nil
		},
	}
}

// panicPairing pairs the real MDS family with an algorithm whose Prepare
// panics on every pair — the sweep's panic confinement turns that into a
// structured *lbfamily.PanicError with a partial report.
func panicPairing() serve.Pairing {
	return serve.Pairing{
		Family: "chaos", Alg: "panic", Params: "k=2",
		Build: func() (serve.Runner, error) {
			fam, err := mdslb.New(2)
			if err != nil {
				return nil, err
			}
			alg := reduction.AlgorithmOf[*graph.Graph]{
				Name: "panic",
				Prepare: func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
					panic("chaos monkey in the predicate")
				},
			}
			return func(ctx context.Context, cfg reduction.Config) (*reduction.Report, error) {
				return reduction.CertifyCtx(ctx, fam, alg, cfg)
			}, nil
		},
	}
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server, *client.Client) {
	t.Helper()
	reg := serve.DefaultRegistry()
	for _, p := range []serve.Pairing{slowPairing(), panicPairing()} {
		if err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	srv := serve.New(cfg, reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, client.New(ts.URL)
}

// TestServeChaos is the acceptance chaos test: mixed load — valid jobs,
// a fault-plan job, a deadline-exceeding job, a panicking-predicate job,
// and a burst beyond queue capacity — against a 2-worker/4-slot server.
// The process never crashes; shed requests draw 429 + Retry-After;
// panicking jobs return structured errors while other jobs complete; a
// drain under deadline cancels the stragglers and flips readiness.
func TestServeChaos(t *testing.T) {
	srv, ts, cl := newTestServer(t, serve.Config{
		Workers: 2, QueueDepth: 4, DefaultTimeout: 10 * time.Second, RetryAfter: time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Valid jobs (retrying client rides out any transient shed) plus one
	// fault-plan job: collect-retry stays exact under a 2% drop plan.
	var goodIDs []string
	for i := 0; i < 3; i++ {
		st, err := cl.Submit(ctx, serve.JobRequest{Family: "mds", Alg: "collect", Pairs: 8, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("submit good job %d: %v", i, err)
		}
		goodIDs = append(goodIDs, st.ID)
	}
	faultSt, err := cl.Submit(ctx, serve.JobRequest{
		Family: "mds", Alg: "collect-retry", Pairs: 4, Seed: 7, Faults: "drop=0.02,seed=7",
	})
	if err != nil {
		t.Fatalf("submit fault-plan job: %v", err)
	}

	// Panicking-predicate job: fails with the structured panic error.
	panicSt, err := cl.Submit(ctx, serve.JobRequest{Family: "chaos", Alg: "panic", Pairs: 4})
	if err != nil {
		t.Fatalf("submit panic job: %v", err)
	}

	// Deadline-exceeding job: ~400ms of work under an 80ms deadline.
	deadlineSt, err := cl.Submit(ctx, serve.JobRequest{Family: "chaos", Alg: "slow", TimeoutMS: 80})
	if err != nil {
		t.Fatalf("submit deadline job: %v", err)
	}

	// Burst beyond queue capacity, submitted without retry: with 2 workers
	// busy and 4 queue slots, 24 instant submissions must shed.
	var (
		mu       sync.Mutex
		shed     int
		accepted []string
	)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			once := *cl
			once.MaxRetries = -1
			st, err := once.SubmitOnce(ctx, serve.JobRequest{Family: "chaos", Alg: "slow"})
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				accepted = append(accepted, st.ID)
				return
			}
			se, ok := err.(*client.StatusError)
			if !ok || se.Code != http.StatusTooManyRequests {
				t.Errorf("burst submission failed with %v, want 429", err)
				return
			}
			if se.RetryAfter < time.Second {
				t.Errorf("429 without a usable Retry-After hint: %v", se.RetryAfter)
			}
			shed++
		}()
	}
	wg.Wait()
	if shed == 0 {
		t.Fatalf("burst of 24 beyond a 4-slot queue shed nothing (accepted %d)", len(accepted))
	}

	// The good jobs and the fault-plan job complete correctly despite the
	// chaos around them.
	for _, id := range append(append([]string{}, goodIDs...), faultSt.ID) {
		st, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("job %s ended %s (%s: %s), want done", id, st.State, st.ErrorKind, st.Error)
		}
		if st.Mismatches != 0 {
			t.Fatalf("job %s reported %d mismatches", id, st.Mismatches)
		}
	}
	_, rep, err := cl.Report(ctx, goodIDs[0])
	if err != nil {
		t.Fatalf("report %s: %v", goodIDs[0], err)
	}
	if rep == nil || rep.Completed != 8 || len(rep.Pairs) != 8 {
		t.Fatalf("report %s incomplete: %+v", goodIDs[0], rep)
	}

	// The panic job failed with the structured confined-panic error.
	st, err := cl.Wait(ctx, panicSt.ID)
	if err != nil {
		t.Fatalf("wait panic job: %v", err)
	}
	if st.State != serve.StateFailed || st.ErrorKind != serve.KindPanic {
		t.Fatalf("panic job ended state=%s kind=%s, want failed/panic", st.State, st.ErrorKind)
	}
	if !strings.Contains(st.Error, "panic at (x=") || !strings.Contains(st.Error, "chaos monkey") {
		t.Fatalf("panic job error not structured: %q", st.Error)
	}

	// The deadline job failed with kind=deadline and a partial count.
	st, err = cl.Wait(ctx, deadlineSt.ID)
	if err != nil {
		t.Fatalf("wait deadline job: %v", err)
	}
	if st.State != serve.StateFailed || st.ErrorKind != serve.KindDeadline {
		t.Fatalf("deadline job ended state=%s kind=%s (%s), want failed/deadline", st.State, st.ErrorKind, st.Error)
	}
	if st.Completed >= st.Total || st.Total != 100 {
		t.Fatalf("deadline job completed %d of %d, want a strict partial", st.Completed, st.Total)
	}

	// Shed accounting surfaced in stats.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed < int64(shed) {
		t.Fatalf("stats.Shed=%d < observed %d", stats.Shed, shed)
	}
	// Throughput accounting: the finished jobs above completed pairs
	// (including the deadline job's partial prefix), so the cumulative
	// counters are live.
	if stats.PairsCertified < 8 {
		t.Fatalf("stats.PairsCertified=%d after 8-pair jobs finished", stats.PairsCertified)
	}
	if stats.PairsPerSec <= 0 {
		t.Fatalf("stats.PairsPerSec=%v with %d pairs certified", stats.PairsPerSec, stats.PairsCertified)
	}

	// Drain under a deadline shorter than the remaining slow work: the
	// stragglers are cancelled (kind=drain), drain reports forced, and the
	// server flips to 503 for readiness and submissions. Two fresh ~2s
	// jobs pin work in flight so the drain deadline genuinely bites.
	patient := *cl
	patient.MaxRetries = 30 // the burst's accepted jobs may hold the queue for a while
	var stragglers []string
	for i := 0; i < 2; i++ {
		st, err := patient.Submit(ctx, serve.JobRequest{Family: "chaos", Alg: "slow", Pairs: 500})
		if err != nil {
			t.Fatalf("submit straggler: %v", err)
		}
		stragglers = append(stragglers, st.ID)
	}
	start := time.Now()
	dctx, dcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer dcancel()
	clean := srv.Drain(dctx)
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("drain took %v, not bounded by its deadline", waited)
	}
	if clean {
		t.Fatal("drain reported clean with ~2s straggler jobs in flight")
	}
	for _, id := range stragglers {
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateCancelled || st.ErrorKind != serve.KindDrain {
			t.Fatalf("drained job %s ended state=%s kind=%s, want cancelled/drain", st.ID, st.State, st.ErrorKind)
		}
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if _, err := cl.SubmitOnce(ctx, serve.JobRequest{Family: "mds", Alg: "greedy"}); err == nil {
		t.Fatal("submission accepted after drain")
	} else if se, ok := err.(*client.StatusError); !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission error %v, want 503", err)
	}
	// healthz stays up for the supervisor throughout.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d, want 200", resp.StatusCode)
	}
}

// TestServeDrainClean: with only fast jobs in flight, a roomy drain
// deadline finishes them all and reports a clean drain.
func TestServeDrainClean(t *testing.T) {
	srv, _, cl := newTestServer(t, serve.Config{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := cl.Submit(ctx, serve.JobRequest{Family: "mds", Alg: "greedy", Pairs: 4, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if clean := srv.Drain(dctx); !clean {
		t.Fatal("drain with a roomy deadline reported forced cancellation")
	}
	for _, id := range ids {
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("job %s ended %s after clean drain, want done", id, st.State)
		}
	}
}

// TestServeValidation: malformed submissions are rejected with structured
// 4xx errors, not enqueued.
func TestServeValidation(t *testing.T) {
	srv, ts, cl := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain(context.Background())
	ctx := context.Background()
	cases := []struct {
		req  serve.JobRequest
		code int
	}{
		{serve.JobRequest{Family: "nope", Alg: "collect"}, http.StatusNotFound},
		{serve.JobRequest{Family: "mds", Alg: "nope"}, http.StatusNotFound},
		{serve.JobRequest{Family: "mds", Alg: "greedy", Pairs: -1}, http.StatusBadRequest},
		{serve.JobRequest{Family: "mds", Alg: "greedy", Pairs: 1 << 20}, http.StatusBadRequest},
		{serve.JobRequest{Family: "mds", Alg: "greedy", Faults: "drop=1.5"}, http.StatusBadRequest},
		{serve.JobRequest{Family: "mds", Alg: "greedy", MaxRounds: -3}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := cl.SubmitOnce(ctx, tc.req)
		se, ok := err.(*client.StatusError)
		if !ok || se.Code != tc.code {
			t.Errorf("submit %+v: err=%v, want status %d", tc.req, err, tc.code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}
	if _, err := cl.Status(ctx, "j-999999"); err == nil {
		t.Fatal("unknown job id should 404")
	}
}

// TestServePairingsListing: the listing endpoint exposes the registry,
// including the synthetic test pairings, with their metadata.
func TestServePairingsListing(t *testing.T) {
	srv, _, cl := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain(context.Background())
	pairings, err := cl.Pairings(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]serve.PairingInfo{}
	for _, p := range pairings {
		byKey[p.Family+"/"+p.Alg] = p
	}
	for _, key := range []string{"mds/collect", "mds/collect-retry", "mvc/matching", "maxcut/exact", "hamlb/collect", "dir-steiner/collect", "chaos/slow"} {
		if _, ok := byKey[key]; !ok {
			t.Errorf("pairing %s missing from listing", key)
		}
	}
	if p := byKey["hamlb/collect"]; !p.Directed || !p.Exact {
		t.Errorf("hamlb/collect metadata wrong: %+v", p)
	}
	if p := byKey["mds/greedy"]; p.Directed || p.Exact {
		t.Errorf("mds/greedy metadata wrong: %+v", p)
	}
}

// TestServeStream: the SSE endpoint emits progress events and a terminal
// done event carrying the final state.
func TestServeStream(t *testing.T) {
	srv, ts, cl := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, serve.JobRequest{Family: "chaos", Alg: "slow", Pairs: 20})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var progress, done int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "event: progress":
			progress++
		case "event: done":
			done++
		}
		if done > 0 && strings.HasPrefix(sc.Text(), "data: ") {
			if !strings.Contains(sc.Text(), `"state"`) {
				t.Fatalf("done event payload missing state: %q", sc.Text())
			}
			break
		}
	}
	if progress == 0 || done == 0 {
		t.Fatalf("stream saw %d progress and %d done events", progress, done)
	}
}

// TestServeStreamClientDisconnect: a client that drops its SSE stream
// mid-job leaks nothing — the handler goroutine exits with the request
// context, the job still runs to completion, and its terminal state is
// counted in stats.
func TestServeStreamClientDisconnect(t *testing.T) {
	srv, ts, cl := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	before := runtime.NumGoroutine()

	st, err := cl.Submit(ctx, serve.JobRequest{Family: "chaos", Alg: "slow", Pairs: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Open the stream, read until the first progress event proves the
	// handler is live, then hang up mid-stream.
	sctx, scancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/stream", ts.URL, st.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sawProgress := false
	for sc.Scan() {
		if sc.Text() == "event: progress" {
			sawProgress = true
			break
		}
	}
	if !sawProgress {
		t.Fatal("stream closed before any progress event")
	}
	scancel()
	resp.Body.Close()

	// The abandoned job still completes.
	final, err := cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job after client disconnect ended %s, want done", final.State)
	}
	if final.Completed != 60 {
		t.Fatalf("job completed %d of 60 pairs", final.Completed)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done < 1 {
		t.Fatalf("stats.Done=%d after the abandoned job finished", stats.Done)
	}
	if stats.PairsCertified < 60 {
		t.Fatalf("stats.PairsCertified=%d, want >= 60", stats.PairsCertified)
	}

	// No leaked stream handler: goroutine count settles back to around
	// where it started (keep-alive conns etc. give it a little slack).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d (was %d) 5s after disconnect:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeMetricsEndpoint: /v1/metrics renders the registry in
// Prometheus text exposition format with the server's counters, gauges
// and histograms, and histogram series stay internally consistent.
func TestServeMetricsEndpoint(t *testing.T) {
	srv, ts, cl := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, serve.JobRequest{Family: "mds", Alg: "collect", Pairs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()

	for _, want := range []string{
		"# TYPE hardness_jobs_submitted_total counter",
		"# TYPE hardness_jobs_active gauge",
		"# TYPE hardness_job_run_seconds histogram",
		"hardness_pairs_certified_total 4",
		"hardness_jobs_done_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Histogram consistency: the run-time histogram's +Inf bucket equals
	// its _count, and at least one observation landed.
	var infBucket, count string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `hardness_job_run_seconds_bucket{le="+Inf"}`) {
			infBucket = line[strings.LastIndex(line, " ")+1:]
		}
		if strings.HasPrefix(line, "hardness_job_run_seconds_count") {
			count = line[strings.LastIndex(line, " ")+1:]
		}
	}
	if infBucket == "" || count == "" {
		t.Fatalf("run-time histogram series incomplete:\n%s", text)
	}
	if infBucket != count {
		t.Errorf("+Inf bucket %s != count %s", infBucket, count)
	}
	if count == "0" {
		t.Error("run-time histogram empty after a finished job")
	}
}
