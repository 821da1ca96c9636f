package lbfamily

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
)

// hookFamily is a correct K-bit family whose predicate calls a test hook
// before answering, so tests can slow it down, cancel mid-sweep, or panic
// on a chosen pair. Layout: Alice owns vertices 0..k (bit-vertex i plus
// hub k), Bob owns k+1..2k+1 (hub k+1 plus bit-vertex k+2+i); the single
// cut edge (k, k+1) is fixed; bit i of x (resp. y) attaches edge (i, k)
// (resp. (k+1, k+2+i)). The predicate decodes both inputs from the graph
// and decides intersection, i.e. ¬DISJ.
type hookFamily struct {
	k    int
	hook func(xv, yv uint64) // called per predicate evaluation, nil ok
}

func (f *hookFamily) Name() string        { return "hook" }
func (f *hookFamily) K() int              { return f.k }
func (f *hookFamily) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

func (f *hookFamily) AliceSide() []bool {
	side := make([]bool, 2*f.k+2)
	for v := 0; v <= f.k; v++ {
		side[v] = true
	}
	return side
}

func (f *hookFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	g := graph.New(2*f.k + 2)
	g.MustAddEdge(f.k, f.k+1)
	for i := 0; i < f.k; i++ {
		if x.Get(i) {
			g.MustAddEdge(i, f.k)
		}
		if y.Get(i) {
			g.MustAddEdge(f.k+1, f.k+2+i)
		}
	}
	return g, nil
}

// decode reads both inputs back out of the instance graph.
func (f *hookFamily) decode(g *graph.Graph) (xv, yv uint64) {
	for i := 0; i < f.k; i++ {
		if g.HasEdge(i, f.k) {
			xv |= 1 << uint(i)
		}
		if g.HasEdge(f.k+1, f.k+2+i) {
			yv |= 1 << uint(i)
		}
	}
	return xv, yv
}

func (f *hookFamily) Predicate(g *graph.Graph) (bool, error) {
	xv, yv := f.decode(g)
	if f.hook != nil {
		f.hook(xv, yv)
	}
	return xv&yv != 0, nil
}

// hookDeltaFamily opts the hook family into the delta path, so the
// cancellation and panic-confinement behavior of the Gray-code walk is
// exercised too.
type hookDeltaFamily struct{ hookFamily }

func (f *hookDeltaFamily) BuildBase() (*graph.Graph, error) {
	zero := comm.NewBits(f.k)
	return f.Build(zero, zero)
}

func (f *hookDeltaFamily) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	if player == PlayerX {
		_, err := g.ToggleEdge(bit, f.k, 1)
		return err
	}
	_, err := g.ToggleEdge(f.k+1, f.k+2+bit, 1)
	return err
}

func TestHookFamilyIsCorrect(t *testing.T) {
	// The fixture itself must pass verification on both phase-1 paths,
	// or the cancellation tests below would measure a broken family.
	if err := Verify(&hookFamily{k: 3}); err != nil {
		t.Fatalf("rebuild path: %v", err)
	}
	if err := Verify(&hookDeltaFamily{hookFamily{k: 3}}); err != nil {
		t.Fatalf("delta path: %v", err)
	}
}

// waitGoroutinesBack retries until the goroutine count returns to the
// baseline (worker exit is asynchronous after Wait in the failure path,
// and unrelated runtime goroutines may come and go).
func waitGoroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after sweep", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testCancelMidSweep(t *testing.T, fam Family[*graph.Graph]) {
	t.Helper()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals atomic.Int64
	setHook(fam, func(xv, yv uint64) {
		if evals.Add(1) == 8 {
			cancel()
		}
		time.Sleep(200 * time.Microsecond)
	})
	start := time.Now()
	err := VerifyCtx(ctx, fam)
	elapsed := time.Since(start)

	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("VerifyCtx returned %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("CancelledError does not unwrap to context.Canceled")
	}
	total := 1 << uint(2*fam.K())
	if cerr.Total != total {
		t.Errorf("Total = %d, want %d", cerr.Total, total)
	}
	if cerr.Completed <= 0 || cerr.Completed >= total {
		t.Errorf("Completed = %d, want a strictly partial count of %d", cerr.Completed, total)
	}
	// 4096 pairs at 200µs each would run for ~0.8s even across all CPUs;
	// a prompt cancellation after 8 evaluations returns far sooner.
	if elapsed > 2*time.Second {
		t.Errorf("cancelled sweep took %v, not prompt", elapsed)
	}
	waitGoroutinesBack(t, before)
}

// setHook installs the test hook on either fixture flavor.
func setHook(fam Family[*graph.Graph], hook func(xv, yv uint64)) {
	switch f := fam.(type) {
	case *hookFamily:
		f.hook = hook
	case *hookDeltaFamily:
		f.hook = hook
	}
}

func TestVerifyCtxCancelRebuildPath(t *testing.T) {
	testCancelMidSweep(t, &hookFamily{k: 6})
}

func TestVerifyCtxCancelDeltaPath(t *testing.T) {
	testCancelMidSweep(t, &hookDeltaFamily{hookFamily{k: 6}})
}

func TestVerifyCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := VerifyCtx(ctx, &hookFamily{k: 3})
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("VerifyCtx with dead ctx returned %v, want *CancelledError", err)
	}
	if cerr.Completed != 0 {
		t.Errorf("Completed = %d before any work, want 0", cerr.Completed)
	}
}

func testPanicNamesPair(t *testing.T, fam Family[*graph.Graph]) {
	t.Helper()
	k := fam.K()
	setHook(fam, func(xv, yv uint64) {
		if xv == 1 && yv == 2 {
			panic("predicate exploded")
		}
	})
	err := Verify(fam)
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("Verify returned %v, want *PanicError", err)
	}
	wantX, _ := comm.BitsFromUint64(k, 1)
	wantY, _ := comm.BitsFromUint64(k, 2)
	if !perr.X.Equal(wantX) || !perr.Y.Equal(wantY) {
		t.Errorf("panic attributed to (x=%s, y=%s), want (x=%s, y=%s)", perr.X, perr.Y, wantX, wantY)
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "predicate exploded") {
		t.Errorf("error %q does not describe the panic", err)
	}
	if len(perr.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
}

func TestVerifyPanicNamesPairRebuildPath(t *testing.T) {
	testPanicNamesPair(t, &hookFamily{k: 3})
}

func TestVerifyPanicNamesPairDeltaPath(t *testing.T) {
	testPanicNamesPair(t, &hookDeltaFamily{hookFamily{k: 3}})
}

func TestVerifyPanicIsDeterministicFirstFailure(t *testing.T) {
	// Two panicking pairs: the row-major-first one must be reported every
	// time, like any other first failure.
	fam := &hookFamily{k: 2}
	fam.hook = func(xv, yv uint64) {
		if (xv == 1 && yv == 3) || (xv == 2 && yv == 0) {
			panic(fmt.Sprintf("boom at x=%d y=%d", xv, yv))
		}
	}
	for trial := 0; trial < 5; trial++ {
		err := Verify(fam)
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("trial %d: got %v, want *PanicError", trial, err)
		}
		// Row-major order is (x=1,y=3) at index 1*4+3 = 7 before
		// (x=2,y=0) at index 8.
		if !strings.Contains(err.Error(), "boom at x=1 y=3") {
			t.Fatalf("trial %d: wrong panic reported first: %v", trial, err)
		}
	}
}

func TestSampledInputsHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := sampledInputs(5, rng, 40)
	if len(inputs) < 2 || len(inputs) > 42 {
		t.Fatalf("sampledInputs returned %d inputs", len(inputs))
	}
	if inputs[0].String() != comm.NewBits(5).String() {
		t.Errorf("first input %s, want all-zeros", inputs[0])
	}
	if inputs[1].String() != comm.OnesBits(5).String() {
		t.Errorf("second input %s, want all-ones", inputs[1])
	}
	seen := map[string]bool{}
	for _, b := range inputs {
		key := b.String()
		if seen[key] {
			t.Errorf("duplicate input %s survived deduplication", key)
		}
		seen[key] = true
		if got := len(key); got != 5 {
			t.Errorf("input %s has %d bits, want 5", key, got)
		}
	}
}
