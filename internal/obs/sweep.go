package obs

// SweepMetrics bundles the per-pair histograms a Theorem 1.1
// certification sweep feeds: wall-clock latency per pair, CONGEST
// rounds per pair, and cut bits per pair. reduction.Certify accepts one
// via Config.Metrics, on either graph kind, and observes each pair as it
// completes; the serve layer registers a shared instance so every job's
// sweep lands in the same /v1/metrics series.
type SweepMetrics struct {
	PairSeconds *Histogram
	PairRounds  *Histogram
	PairCutBits *Histogram
}

// MustSweepMetrics registers the three sweep histograms on r under
// their canonical names and returns the bundle. Panics only on
// registration conflicts, i.e. programmer error at wiring time.
//
// Bucket rationale: pairs at exhaustive K (k<=2, n<=20ish graphs) run
// tens of microseconds to tens of milliseconds, so latency spans
// 10us..~160ms exponentially; rounds per pair are small integers (a
// collect algorithm needs O(diameter + b/B) rounds — single digits to
// a few hundred); cut bits scale with rounds x bandwidth across the
// (S,T) cut, so the bounds grow geometrically to ~1M.
func MustSweepMetrics(r *Registry) *SweepMetrics {
	return &SweepMetrics{
		PairSeconds: r.MustHistogram("hardness_pair_seconds",
			"Wall-clock time certifying one input pair (one CONGEST run plus verdict checks).",
			ExpBuckets(10e-6, 2, 15)),
		PairRounds: r.MustHistogram("hardness_pair_rounds",
			"Synchronous CONGEST rounds simulated for one certified pair.",
			ExpBuckets(1, 2, 12)),
		PairCutBits: r.MustHistogram("hardness_pair_cut_bits",
			"Bits crossing the (S,T) cut during one certified pair's run.",
			ExpBuckets(16, 4, 11)),
	}
}

// ObservePair records one completed pair. Allocation-free; safe to
// call from concurrent sweep workers. A nil receiver is a no-op so
// callers can thread an optional bundle without nil checks.
func (m *SweepMetrics) ObservePair(seconds float64, rounds, cutBits int64) {
	if m == nil {
		return
	}
	m.PairSeconds.Observe(seconds)
	m.PairRounds.Observe(float64(rounds))
	m.PairCutBits.Observe(float64(cutBits))
}
