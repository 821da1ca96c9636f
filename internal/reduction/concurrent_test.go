package reduction

import (
	"context"
	"sync"
	"testing"

	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
)

// TestCertifyCtxConcurrent runs several certification sweeps concurrently
// against ONE shared family instance — the access pattern of the job
// server, whose base cache hands the same built family to every worker.
// Families must be read-only after construction; this test (run under the
// -race CI job) is the proof. Same-seed sweeps must also agree exactly,
// catching any shared mutable state that corrupts results without racing.
func TestCertifyCtxConcurrent(t *testing.T) {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	alg := CollectMDS(fam)
	const goroutines = 8
	reports := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half share seed 1 (must agree exactly), half get distinct
			// seeds (must still certify cleanly).
			seed := int64(1)
			if i >= goroutines/2 {
				seed = int64(i)
			}
			reports[i], errs[i] = CertifyCtx(context.Background(), fam, alg, Config{Pairs: 24, Seed: seed})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if reports[i].Mismatches != 0 {
			t.Fatalf("sweep %d: %d mismatches from the exact collect", i, reports[i].Mismatches)
		}
	}
	base := reports[0]
	for i := 1; i < goroutines/2; i++ {
		r := reports[i]
		if r.SimBits != base.SimBits || r.MaxRounds != base.MaxRounds || r.MaxCutBits != base.MaxCutBits {
			t.Fatalf("same-seed sweeps diverged: sweep %d {sim=%d rounds=%d cut=%d} vs {sim=%d rounds=%d cut=%d}",
				i, r.SimBits, r.MaxRounds, r.MaxCutBits, base.SimBits, base.MaxRounds, base.MaxCutBits)
		}
		for p := range r.Pairs {
			if !r.Pairs[p].X.Equal(base.Pairs[p].X) || !r.Pairs[p].Y.Equal(base.Pairs[p].Y) || r.Pairs[p].Output != base.Pairs[p].Output {
				t.Fatalf("same-seed sweeps diverged at pair %d", p)
			}
		}
	}
}

// TestCertifyDigraphCtxConcurrent is the directed case: concurrent sweeps
// of the Hamiltonian-path family through CertifyCtx, sharing one family
// and one algorithm value.
func TestCertifyDigraphCtxConcurrent(t *testing.T) {
	fam, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	alg := CollectHamPath(fam)
	const goroutines = 6
	reports := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = CertifyCtx(context.Background(), fam, alg, Config{Pairs: 12, Seed: int64(i + 1)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("directed sweep %d: %v", i, err)
		}
		if reports[i].Mismatches != 0 {
			t.Fatalf("directed sweep %d: %d mismatches from the exact collect", i, reports[i].Mismatches)
		}
		if reports[i].Completed != 12 {
			t.Fatalf("directed sweep %d certified %d of 12 pairs", i, reports[i].Completed)
		}
	}
}
