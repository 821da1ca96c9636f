package reduction

import (
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/obs"
)

// pairTracer records, per canonical pair index, how many rounds the
// simulator reported — the contract Config.Trace threads through to
// congest Options.Trace.
type pairTracer struct {
	rounds int
}

func (p *pairTracer) ObserveRound(t congest.RoundTrace) { p.rounds++ }

func TestCertifyThreadsTraceSerially(t *testing.T) {
	fam := mdsFam(t)
	tracers := map[int]*pairTracer{}
	cfg := Config{Seed: 1, Serial: true, Trace: func(idx int, x, y comm.Bits) congest.Tracer {
		tr := &pairTracer{}
		tracers[idx] = tr
		return tr
	}}
	rep, err := Certify(fam, CollectMDS(fam), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracers) != len(rep.Pairs) {
		t.Fatalf("trace factory called for %d pairs, want %d", len(tracers), len(rep.Pairs))
	}
	for idx, p := range rep.Pairs {
		if tracers[idx] == nil {
			t.Fatalf("pair %d never traced", idx)
		}
		if tracers[idx].rounds != p.Rounds {
			t.Errorf("pair %d traced %d rounds, report says %d", idx, tracers[idx].rounds, p.Rounds)
		}
	}
}

func TestCertifyFeedsSweepMetrics(t *testing.T) {
	fam := mdsFam(t)
	reg := obs.NewRegistry()
	sm := obs.MustSweepMetrics(reg)
	rep, err := Certify(fam, CollectMDS(fam), Config{Seed: 1, Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	if n := sm.PairSeconds.Count(); n != int64(rep.Completed) {
		t.Errorf("latency histogram holds %d observations, want %d", n, rep.Completed)
	}
	var rounds, cutBits int64
	for _, p := range rep.Pairs {
		rounds += int64(p.Rounds)
		cutBits += p.CutBits
	}
	if got := sm.PairRounds.Sum(); got != float64(rounds) {
		t.Errorf("rounds histogram sum %g, want %d", got, rounds)
	}
	if got := sm.PairCutBits.Sum(); got != float64(cutBits) {
		t.Errorf("cut-bits histogram sum %g, want %d", got, cutBits)
	}
	if sm.PairSeconds.Sum() <= 0 {
		t.Error("latency histogram sum not positive")
	}
}

func TestCertifyDigraphFeedsSweepMetricsAndTrace(t *testing.T) {
	fam := hamFam(t)
	reg := obs.NewRegistry()
	sm := obs.MustSweepMetrics(reg)
	traced := 0
	tr := &pairTracer{}
	cfg := Config{Seed: 1, Pairs: 6, Serial: true, Metrics: sm,
		Trace: func(idx int, x, y comm.Bits) congest.Tracer {
			traced++
			return tr
		}}
	rep, err := Certify(fam, CollectHamPath(fam), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := sm.PairSeconds.Count(); n != int64(rep.Completed) {
		t.Errorf("latency histogram holds %d observations, want %d", n, rep.Completed)
	}
	if traced != rep.Completed {
		t.Errorf("trace factory called %d times, want %d", traced, rep.Completed)
	}
	var rounds int
	for _, p := range rep.Pairs {
		rounds += p.Rounds
	}
	if tr.rounds != rounds {
		t.Errorf("traced %d rounds total, reports sum to %d", tr.rounds, rounds)
	}
}
