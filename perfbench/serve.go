package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congesthard/internal/reduction"
	"congesthard/internal/serve"
	"congesthard/internal/serve/client"
)

// mixJob is one kind of job the serve-mix clients submit: a small sampled
// sweep of a registry pairing, some under the fault plan, some carrying
// transcript checks.
type mixJob struct {
	key         string
	pairs       int
	transcripts int
	faults      bool
}

// mixJobs is the rotation. Plain mds/collect jobs are half of it, so the
// median job lies inside one kind's latency range rather than on the
// boundary between two kinds, where it would jump between runs.
var mixJobs = []mixJob{
	{key: "mds/collect", pairs: 16},
	{key: "mds/collect", pairs: 16, transcripts: 2},
	{key: "mds/collect", pairs: 16},
	{key: "mds/collect-retry", pairs: 8, faults: true},
	{key: "mds/collect", pairs: 16},
	{key: "hamlb/collect", pairs: 4},
}

// mixSeeds is how many seeds each job kind rotates through.
const mixSeeds = 4

// serveClients is the number of closed-loop clients; with serveWorkers
// server workers and one sweep worker each, the load stays within nproc.
const (
	serveClients = 2
	serveWorkers = 2
)

// probeJobs is how many jobs a certify workload's traced run sends
// through the server to measure the serve layer on its own sweep.
const probeJobs = 4

// jobSpec is a job request with its correctness gate.
type jobSpec struct {
	req serve.JobRequest
	ref refCheck
	rep *reduction.Report // the serial reference report
}

// mixSpecs builds every job of the mix for seed, with reference digests
// from serial sweeps through the registry pairings.
func mixSpecs(seed int64) ([]jobSpec, error) {
	runners := map[string]serve.Runner{}
	exact := map[string]bool{}
	var specs []jobSpec
	for s := 0; s < mixSeeds; s++ {
		for _, mj := range mixJobs {
			runner, ok := runners[mj.key]
			if !ok {
				r, p, err := lookupRunner(mj.key)
				if err != nil {
					return nil, err
				}
				runner, runners[mj.key], exact[mj.key] = r, r, p.Exact
			}
			jobSeed := deriveSeed(seed, uint64(100+s))
			family, alg := splitKey(mj.key)
			req := serve.JobRequest{Family: family, Alg: alg, Pairs: mj.pairs, Seed: jobSeed, TranscriptChecks: mj.transcripts}
			cfg := reduction.Config{Pairs: mj.pairs, Seed: jobSeed, TranscriptChecks: mj.transcripts}
			if mj.faults {
				plan, err := faultPlan(jobSeed)
				if err != nil {
					return nil, err
				}
				req.Faults, cfg.Faults = plan.String(), plan
			}
			ref, rep, err := newRefCheck(runner, cfg, exact[mj.key])
			if err != nil {
				return nil, err
			}
			specs = append(specs, jobSpec{req: req, ref: ref, rep: rep})
		}
	}
	return specs, nil
}

// sweepLog records the engine time of every sweep the server runs, at
// the Runner seam.
type sweepLog struct {
	mu     sync.Mutex
	sweeps []time.Duration
}

func (l *sweepLog) timed(r serve.Runner) serve.Runner {
	return func(ctx context.Context, cfg reduction.Config) (*reduction.Report, error) {
		t0 := time.Now()
		rep, err := r(ctx, cfg)
		d := time.Since(t0)
		l.mu.Lock()
		l.sweeps = append(l.sweeps, d)
		l.mu.Unlock()
		return rep, err
	}
}

// mixRegistry registers the mix's pairings of serve.DefaultRegistry with
// their Runners timed; with a clock, the Runners are the traced rebuilds.
func mixRegistry(log *sweepLog, clock *layerClock) (*serve.Registry, error) {
	reg := serve.NewRegistry()
	seen := map[string]bool{}
	for _, mj := range mixJobs {
		if seen[mj.key] {
			continue
		}
		seen[mj.key] = true
		family, alg := splitKey(mj.key)
		p, ok := serve.DefaultRegistry().Lookup(family, alg)
		if !ok {
			return nil, fmt.Errorf("pairing %s is not in the registry", mj.key)
		}
		build, key := p.Build, p.Key()
		p.Build = func() (serve.Runner, error) {
			if clock != nil {
				tg, err := newTarget(key)
				if err != nil {
					return nil, err
				}
				return log.timed(tg.tracedRunner(clock)), nil
			}
			r, err := build()
			if err != nil {
				return nil, err
			}
			return log.timed(r), nil
		}
		if err := reg.Register(p); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// liveServer is a job server on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	http *httptest.Server
	hc   *http.Client
	c    *client.Client
}

func startServer(cfg serve.Config, reg *serve.Registry) *liveServer {
	srv := serve.New(cfg, reg)
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	c := client.New(ts.URL)
	c.HTTPClient = hc
	return &liveServer{srv: srv, http: ts, hc: hc, c: c}
}

// stop drains the server and closes the listener and client connections.
func (l *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l.srv.Drain(ctx)
	l.hc.CloseIdleConnections()
	l.http.Close()
}

// awaitDone follows the job's server-sent event stream until the server
// pushes the terminal "done" event.
func (l *liveServer) awaitDone(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.http.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return st, err
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			err := json.Unmarshal([]byte(data), &st)
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("stream %s ended before done", id)
}

// scrapeCache reads the base cache's hit and miss counters from the
// Prometheus exposition at /v1/metrics.
func (l *liveServer) scrapeCache() (hits, misses float64, err error) {
	resp, err := l.hc.Get(l.http.URL + "/v1/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "hardness_cache_hits_total":
			hits, err = strconv.ParseFloat(value, 64)
		case "hardness_cache_misses_total":
			misses, err = strconv.ParseFloat(value, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return hits, misses, sc.Err()
}

// serveRun accumulates the client side of a serve measurement.
type serveRun struct {
	mu                         sync.Mutex
	start                      time.Time
	submit, latency            []time.Duration
	queueMS, runMS, overheadMS []float64
	rss                        []float64
	completions                []completion
	attempted, failed, shed    int
	pairs, msgs                int64
	hitRatio                   float64
}

// completion is one correct job's finish time (since the run's start)
// and its work.
type completion struct {
	at          time.Duration
	pairs, msgs int64
}

// job submits one job, waits for its done event and checks its report.
// A shed, failed or wrong job counts as failed.
func (sr *serveRun) job(ctx context.Context, l *liveServer, spec jobSpec) {
	t0 := time.Now()
	st, err := l.c.SubmitOnce(ctx, spec.req)
	t1 := time.Now()
	var done serve.JobStatus
	if err == nil {
		done, err = l.awaitDone(ctx, st.ID)
	}
	t2 := time.Now()
	var rep *reduction.Report
	ok := err == nil && done.State == serve.StateDone
	if ok {
		_, rep, err = l.c.Report(ctx, st.ID)
		ok = spec.ref.ok(rep, err)
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.attempted++
	var se *client.StatusError
	if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
		sr.shed++
	}
	if !ok {
		sr.failed++
		return
	}
	lat := t2.Sub(t0)
	sr.submit = append(sr.submit, t1.Sub(t0))
	sr.latency = append(sr.latency, lat)
	sr.queueMS = append(sr.queueMS, float64(done.QueueMS))
	sr.runMS = append(sr.runMS, float64(done.RunMS))
	sr.overheadMS = append(sr.overheadMS, float64(lat)/1e6-float64(done.QueueMS+done.RunMS))
	pairs, msgs := int64(len(rep.Pairs)), reportMessages(rep)
	sr.pairs += pairs
	sr.msgs += msgs
	sr.completions = append(sr.completions, completion{at: t2.Sub(sr.start), pairs: pairs, msgs: msgs})
	sr.rss = append(sr.rss, rssMB())
}

// rateWindow is the span over which serve-mix counts completions; its
// rates are the medians over a run's whole windows.
const rateWindow = time.Second

// drive runs closed-loop clients against l for d (each at least one job);
// job i of the run is specs[i % len(specs)].
func drive(l *liveServer, clients int, d time.Duration, specs []jobSpec, log *sweepLog) (*serveRun, *loopStats, error) {
	sr := &serveRun{}
	var next atomic.Int64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs, bytes := ms.Mallocs, ms.TotalAlloc
	log.mu.Lock()
	log.sweeps = log.sweeps[:0]
	log.mu.Unlock()
	sr.start = time.Now()
	deadline := sr.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				sr.job(context.Background(), l, specs[int(next.Add(1)-1)%len(specs)])
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms)
	hits, misses, err := l.scrapeCache()
	if err != nil {
		return nil, nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	sr.hitRatio = hits / max(hits+misses, 1)
	log.mu.Lock()
	sweeps := append([]time.Duration(nil), log.sweeps...)
	log.mu.Unlock()
	st := &loopStats{
		sweeps: sweeps, rss: sr.rss, pairs: sr.pairs, msgs: sr.msgs,
		allocs: ms.Mallocs - allocs, bytes: ms.TotalAlloc - bytes,
		attempted: sr.attempted, failed: sr.failed,
		jobP50: median(millis(sr.latency)), jobP99: quantile(millis(sr.latency), 0.99),
	}
	st.jobsPerS, st.pairsPerS, st.msgsPerS = sr.windowRates(d)
	return sr, st, nil
}

// windowRates returns the median per-second rates of completed jobs,
// pairs and simulated messages over the whole rate windows of a run.
func (sr *serveRun) windowRates(d time.Duration) (jobs, pairs, msgs float64) {
	n := max(int(d/rateWindow), 1)
	counts := make([][3]float64, n)
	for _, c := range sr.completions {
		if w := int(c.at / rateWindow); w < n {
			counts[w][0]++
			counts[w][1] += float64(c.pairs)
			counts[w][2] += float64(c.msgs)
		}
	}
	var rates [3]float64
	for k := range rates {
		xs := make([]float64, n)
		for w := range counts {
			xs[w] = counts[w][k] / rateWindow.Seconds()
		}
		rates[k] = median(xs)
	}
	return rates[0], rates[1], rates[2]
}

// layers fills the serve layer's per-layer metrics.
func (sr *serveRun) layers(res *result) {
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(max(len(xs), 1))
	}
	res.set("serve.submit_ms", mean(millis(sr.submit)), "ms")
	res.set("serve.queue_ms", mean(sr.queueMS), "ms")
	res.set("serve.run_ms", mean(sr.runMS), "ms")
	res.set("serve.overhead_ms", mean(sr.overheadMS), "ms")
	res.set("serve.cache_hit_ratio", sr.hitRatio, "ratio")
	res.set("serve.shed_ratio", float64(sr.shed)/float64(max(sr.attempted, 1)), "ratio")
}

// serveProbe sends one certify workload's sweep through a job server: one
// warm-up job that fills the base cache, then probeJobs measured ones.
func serveProbe(req serve.JobRequest, ref refCheck) (*serveRun, error) {
	l := startServer(serve.Config{Workers: 1, SweepWorkers: runtime.NumCPU()}, serve.DefaultRegistry())
	defer l.stop()
	spec := jobSpec{req: req, ref: ref}
	warm := &serveRun{}
	warm.job(context.Background(), l, spec)
	if warm.failed != 0 {
		return nil, fmt.Errorf("serve probe warm-up job failed")
	}
	sr := &serveRun{}
	for i := 0; i < probeJobs; i++ {
		sr.job(context.Background(), l, spec)
	}
	hits, misses, err := l.scrapeCache()
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	sr.hitRatio = hits / max(hits+misses, 1)
	return sr, nil
}

// mixServer starts a server over the mix registry and sends one job of
// every kind through it, which builds and caches each pairing.
func mixServer(specs []jobSpec, clock *layerClock, log *sweepLog) (*liveServer, error) {
	reg, err := mixRegistry(log, clock)
	if err != nil {
		return nil, err
	}
	l := startServer(serve.Config{Workers: serveWorkers, SweepWorkers: 1}, reg)
	warm := &serveRun{}
	for _, spec := range specs[:len(mixJobs)] {
		warm.job(context.Background(), l, spec)
	}
	if warm.failed != 0 {
		l.stop()
		return nil, fmt.Errorf("serve-mix warm-up: %d of %d jobs failed", warm.failed, warm.attempted)
	}
	return l, nil
}

// serveMixWorkload is two closed-loop clients against an in-process job
// server, rotating small sampled jobs over the mix.
func serveMixWorkload(o options) (*result, error) {
	specs, err := mixSpecs(o.seed)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, s := range specs {
		h.Write(s.ref.digest[:])
	}
	o.log("digest serve-mix seed=%d %s", o.seed, hex.EncodeToString(h.Sum(nil)))

	log := &sweepLog{}
	var l *liveServer
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if l != nil {
			l.stop()
		}
		t0 := time.Now()
		if l, err = mixServer(specs, nil, log); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if !o.trace {
		defer l.stop()
		_, st, err := drive(l, serveClients, o.measure, specs, log)
		if err != nil {
			return nil, err
		}
		o.log("serve-mix: %d jobs, %d pairs, %d failed", st.attempted, st.pairs, st.failed)
		st.tails(o, "serve-mix")
		res := &result{}
		st.endToEnd(res, median(setups))
		return res, nil
	}

	_, plain, err := drive(l, serveClients, o.measure/2, specs, log)
	l.stop()
	if err != nil {
		return nil, err
	}
	clock := &layerClock{}
	tl, err := mixServer(specs, clock, log)
	if err != nil {
		return nil, err
	}
	clock.reset() // drop the warm-up jobs' spans
	sr, traced, err := drive(tl, serveClients, o.measure/2, specs, log)
	tl.stop()
	if err != nil {
		return nil, err
	}
	var iso isolated
	var refPairs []reduction.PairReport
	for i, mj := range mixJobs {
		tg, err := newTarget(mj.key)
		if err != nil {
			return nil, err
		}
		spec := specs[i]
		cfg := reduction.Config{Pairs: mj.pairs, Seed: spec.req.Seed, TranscriptChecks: mj.transcripts}
		if mj.faults {
			if cfg.Faults, err = faultPlan(spec.req.Seed); err != nil {
				return nil, err
			}
		}
		part, err := tg.isolate(cfg, spec.rep)
		if err != nil {
			return nil, fmt.Errorf("isolated layer runs of %s: %w", mj.key, err)
		}
		iso.add(part)
		refPairs = append(refPairs, spec.rep.Pairs...)
	}
	res := &result{}
	layerReport(res, clock, iso, refPairs, plain.pairsPerS, traced.pairsPerS)
	layerTable(o, res)
	sr.layers(res)
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.Correct = res.Failed == 0
	return res, nil
}
