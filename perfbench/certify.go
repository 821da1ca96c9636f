package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/faults"
	"congesthard/internal/obs"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// faultRates is the mds-retry-faults plan; its seed is derived from the
// run's seed.
const faultRates = "drop=0.05,delay=2"

// certifySpec names a certify workload: its registry pairing and whether
// every sweep runs under the fault plan.
type certifySpec struct {
	key    string
	faults bool
}

// splitmix64 mixes the run seed into derived seeds.
func splitmix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// deriveSeed returns a non-negative seed for one input stream of the run.
func deriveSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(stream)) >> 33)
}

func faultPlan(seed int64) (*faults.Plan, error) {
	return faults.Parse(fmt.Sprintf("%s,seed=%d", faultRates, deriveSeed(seed, 1)))
}

// splitKey splits a registry key "family/alg".
func splitKey(key string) (family, alg string) {
	family, alg, _ = strings.Cut(key, "/")
	return family, alg
}

// lookupRunner builds a pairing of a fresh serve.DefaultRegistry.
func lookupRunner(key string) (serve.Runner, serve.Pairing, error) {
	family, alg := splitKey(key)
	p, ok := serve.DefaultRegistry().Lookup(family, alg)
	if !ok {
		return nil, serve.Pairing{}, fmt.Errorf("pairing %s is not in the registry", key)
	}
	r, err := p.Build()
	if err != nil {
		return nil, serve.Pairing{}, fmt.Errorf("build %s: %w", key, err)
	}
	return r, p, nil
}

// reportDigest hashes every PairReport of rep in canonical order: inputs,
// rounds, messages, cut messages and bits, output and ground truth.
func reportDigest(rep *reduction.Report) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 128)
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		buf = appendBits(buf[:0], p.X)
		buf = appendBits(buf, p.Y)
		for _, v := range []int64{int64(p.Rounds), p.Messages, p.CutMessages, p.CutBits} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		buf = append(buf, boolByte(p.Output), boolByte(p.Want))
		h.Write(buf)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func appendBits(buf []byte, b comm.Bits) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Len()))
	for i := 0; i < b.Len(); i++ {
		buf = append(buf, boolByte(b.Get(i)))
	}
	return buf
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// refCheck is the correctness gate for one job configuration: the digest
// of its Config.Serial reference sweep, and whether the pairing claims
// to decide the predicate exactly.
type refCheck struct {
	digest [sha256.Size]byte
	exact  bool
}

// newRefCheck runs the serial reference sweep of cfg outside any timed
// section.
func newRefCheck(runner serve.Runner, cfg reduction.Config, exact bool) (refCheck, *reduction.Report, error) {
	cfg.Serial = true
	rep, err := runner(context.Background(), cfg)
	if err != nil {
		return refCheck{}, nil, fmt.Errorf("serial reference sweep: %w", err)
	}
	return refCheck{digest: reportDigest(rep), exact: exact}, rep, nil
}

// ok reports whether a sweep's outcome passes the gate: it finished, its
// digest equals the reference, and an exact pairing neither mismatches
// nor certifies a budget below CC(f).
func (r refCheck) ok(rep *reduction.Report, err error) bool {
	if err != nil || rep == nil || rep.Completed != rep.Total {
		return false
	}
	if reportDigest(rep) != r.digest {
		return false
	}
	if r.exact && (rep.Mismatches != 0 || float64(rep.SimBits) < rep.CCBound) {
		return false
	}
	return true
}

// loopStats accumulates one closed-loop measurement.
type loopStats struct {
	sweeps        []time.Duration // engine time of each sweep
	rss           []float64       // resident set (MB) sampled after each operation
	pairs, msgs   int64
	allocs, bytes uint64
	attempted     int
	failed        int
	// The rates and job latencies are medians or quantiles the loop
	// kind computes (see certifyLoop and drive).
	pairsPerS, msgsPerS, jobsPerS, jobP50, jobP99 float64
}

// pairLatencyBuckets resolve per-pair latency to 5% between 1 µs and 10 s.
var pairLatencyBuckets = obs.ExpBuckets(1e-6, 1.05, 331)

// certifyLoop runs sweeps back to back for d (at least one) and checks
// each against ref. Throughput is the sweep's work over the median sweep
// time. There is no job server on this loop, so a job is one pair: its
// latency is the engine's own per-pair observation (Config.Metrics, as
// the server sets it for every sweep), and the job quantiles are the
// medians over sweeps of each sweep's quantiles.
func certifyLoop(runner serve.Runner, cfg reduction.Config, ref refCheck, d time.Duration) *loopStats {
	st := &loopStats{}
	var p50s, p99s []float64
	var ms runtime.MemStats
	deadline := time.Now().Add(d)
	for st.attempted == 0 || time.Now().Before(deadline) {
		pairSeconds := obs.MustHistogram(pairLatencyBuckets)
		cfg.Metrics = &obs.SweepMetrics{
			PairSeconds: pairSeconds,
			PairRounds:  obs.MustHistogram(obs.ExpBuckets(1, 2, 16)),
			PairCutBits: obs.MustHistogram(obs.ExpBuckets(16, 4, 16)),
		}
		runtime.ReadMemStats(&ms)
		allocs, bytes := ms.Mallocs, ms.TotalAlloc
		t0 := time.Now()
		rep, err := runner(context.Background(), cfg)
		st.sweeps = append(st.sweeps, time.Since(t0))
		runtime.ReadMemStats(&ms)
		st.allocs += ms.Mallocs - allocs
		st.bytes += ms.TotalAlloc - bytes
		st.rss = append(st.rss, rssMB())
		p50s = append(p50s, pairSeconds.Quantile(0.50)*1e3)
		p99s = append(p99s, pairSeconds.Quantile(0.99)*1e3)
		st.attempted++
		if !ref.ok(rep, err) {
			st.failed++
		}
		if rep != nil {
			st.pairs += int64(len(rep.Pairs))
			st.msgs += reportMessages(rep)
		}
	}
	sweep := median(seconds(st.sweeps))
	n := float64(st.attempted)
	st.pairsPerS = float64(st.pairs) / n / sweep
	st.msgsPerS = float64(st.msgs) / n / sweep
	st.jobsPerS = st.pairsPerS
	st.jobP50 = median(p50s)
	st.jobP99 = median(p99s)
	return st
}

func reportMessages(rep *reduction.Report) int64 {
	var m int64
	for i := range rep.Pairs {
		m += rep.Pairs[i].Messages
	}
	return m
}

// tails logs the tail latencies. They are not result metrics: on a
// shared 2-vCPU host their quartile spread over ten runs reached 30%
// (sweep p90) and 100% (job p99), beyond any usable bound.
func (st *loopStats) tails(o options, what string) {
	o.log("%s tails: sweep p90 %.3f ms over %d sweeps, job p99 %.3f ms", what, quantile(millis(st.sweeps), 0.90), len(st.sweeps), st.jobP99)
}

// endToEnd fills the end-to-end metrics every workload reports.
func (st *loopStats) endToEnd(res *result, setup float64) {
	res.Attempted, res.Failed = st.attempted, st.failed
	res.Correct = st.failed == 0
	pairs := float64(max(st.pairs, 1))
	res.set("pairs_per_s", st.pairsPerS, "1/s")
	res.set("sim_msgs_per_s", st.msgsPerS, "1/s")
	res.set("sweep_p50_ms", median(millis(st.sweeps)), "ms")
	res.set("jobs_per_s", st.jobsPerS, "1/s")
	res.set("job_p50_ms", st.jobP50, "ms")
	res.set("allocs_per_pair", float64(st.allocs)/pairs, "count")
	res.set("bytes_per_pair", float64(st.bytes)/pairs, "B")
	res.set("rss_mb", median(st.rss), "MB")
	res.set("setup_s", setup, "s")
	res.set("ok_ratio", 1-float64(st.failed)/float64(st.attempted), "ratio")
}

// rssMB is the process's current resident set size.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// certifyWorkload is a closed loop of exhaustive sweeps of one registry
// pairing, Config.Workers = nproc.
func certifyWorkload(spec certifySpec) func(options) (*result, error) {
	return func(o options) (*result, error) {
		cfg := reduction.Config{Seed: o.seed, Workers: runtime.NumCPU()}
		if spec.faults {
			plan, err := faultPlan(o.seed)
			if err != nil {
				return nil, err
			}
			cfg.Faults = plan
		}
		var runner serve.Runner
		var pairing serve.Pairing
		var setups []float64
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			r, p, err := lookupRunner(spec.key)
			if err != nil {
				return nil, err
			}
			if _, err := r(context.Background(), cfg); err != nil {
				return nil, fmt.Errorf("warm-up sweep: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			runner, pairing = r, p
		}
		ref, refRep, err := newRefCheck(runner, cfg, pairing.Exact)
		if err != nil {
			return nil, err
		}
		o.log("digest %s seed=%d %s", spec.key, o.seed, hex.EncodeToString(ref.digest[:]))
		if o.trace {
			return traceCertify(o, spec, runner, cfg, ref, refRep)
		}
		st := certifyLoop(runner, cfg, ref, o.measure)
		q := quartiles(millis(st.sweeps))
		o.log("%s: %d sweeps (quartiles %.1f/%.1f/%.1f ms), %d pairs, %d failed", spec.key, st.attempted, q[0], q[1], q[2], st.pairs, st.failed)
		st.tails(o, spec.key)
		res := &result{}
		st.endToEnd(res, median(setups))
		return res, nil
	}
}
