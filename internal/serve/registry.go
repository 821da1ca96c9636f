// Package serve is the hardness-as-a-service layer: a long-running
// HTTP/JSON job server in front of the reduction engine. Clients list the
// wired family/algorithm pairings, submit verification/certification jobs,
// poll or stream per-pair progress and fetch the finalized Report.
//
// Robustness is the design center, built on the primitives the sweep
// engine already has (CertifyCtx deadlines, confined panics, partial
// reports):
//
//   - a bounded worker pool consumes a bounded queue; when the queue is
//     full, submissions are shed with HTTP 429 + Retry-After instead of
//     queueing unboundedly;
//   - every job runs under its own deadline, and a panicking predicate
//     fails that job with a structured error while the process and the
//     other in-flight jobs keep going;
//   - built family instances are shared through an LRU cache keyed by
//     (family, params, build seed) and guarded by singleflight, so a
//     thundering herd of identical submissions builds once;
//   - SIGTERM drains gracefully: readiness flips, new submissions get 503,
//     queued and running jobs finish or are cancelled within a drain
//     deadline, and the process exits 0.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"congesthard/internal/algorithms"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/reduction"
)

// Runner executes one certification job: a family/algorithm pairing bound
// to a built family instance, runnable many times (and concurrently) with
// different configs. Pairings of both graph kinds delegate to
// reduction.CertifyCtx.
type Runner func(ctx context.Context, cfg reduction.Config) (*reduction.Report, error)

// Pairing is one wired family/algorithm pairing: identity, its fixed
// parameterization (part of the cache key) and the builder producing the
// Runner. Build is called at most once per cache residency — the server's
// base cache singleflights it — and must return a Runner safe for
// concurrent use from multiple jobs.
type Pairing struct {
	// Family and Alg name the pairing, e.g. "mds" / "collect".
	Family string
	Alg    string
	// Params describes the fixed family parameterization, e.g. "k=2".
	Params string
	// BuildSeed seeds any randomized search inside Build (the r-covering
	// collection search for the Section 4 families); it is part of the
	// cache key because different seeds build different instances.
	BuildSeed int64
	// Directed marks pairings whose instances are digraphs; certifier
	// sets it from the family's graph kind.
	Directed bool
	// Exact mirrors the algorithm's exactness declaration.
	Exact bool
	// Build constructs the family instance and returns its Runner.
	Build func() (Runner, error)
}

// Key is the pairing's registry key, "family/alg".
func (p Pairing) Key() string { return p.Family + "/" + p.Alg }

// CacheKey identifies the built family base: (family/alg, params, seed).
func (p Pairing) CacheKey() string {
	return fmt.Sprintf("%s|%s|seed=%d", p.Key(), p.Params, p.BuildSeed)
}

// Registry maps "family/alg" to pairings. It is safe for concurrent use;
// tests extend the default registry with synthetic (e.g. panicking)
// pairings through Register.
type Registry struct {
	mu       sync.RWMutex
	pairings map[string]Pairing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{pairings: make(map[string]Pairing)}
}

// Register adds a pairing, rejecting duplicates and nil builders.
func (r *Registry) Register(p Pairing) error {
	if p.Family == "" || p.Alg == "" || p.Build == nil {
		return fmt.Errorf("pairing %q/%q is missing a name or builder", p.Family, p.Alg)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.pairings[p.Key()]; dup {
		return fmt.Errorf("pairing %s already registered", p.Key())
	}
	r.pairings[p.Key()] = p
	return nil
}

// Lookup resolves a family/algorithm pair.
func (r *Registry) Lookup(family, alg string) (Pairing, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.pairings[family+"/"+alg]
	return p, ok
}

// List returns every pairing sorted by key.
func (r *Registry) List() []Pairing {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Pairing, 0, len(r.pairings))
	for _, p := range r.pairings {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// mustRegister panics on registration errors — used only while wiring the
// default registry, where a duplicate is a programming error.
func (r *Registry) mustRegister(p Pairing) {
	if err := r.Register(p); err != nil {
		panic(err)
	}
}

// certifier returns p with a Build whose Runner certifies the family
// and algorithm that build wires, on either graph kind, and with Directed
// set from that kind.
func certifier[G lbfamily.Instance](p Pairing, build func() (lbfamily.Family[G], reduction.AlgorithmOf[G], error)) Pairing {
	p.Directed = lbfamily.IsDigraph[G]()
	p.Build = func() (Runner, error) {
		fam, alg, err := build()
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, cfg reduction.Config) (*reduction.Report, error) {
			return reduction.CertifyCtx(ctx, fam, alg, cfg)
		}, nil
	}
	return p
}

// coverSeed seeds the randomized r-covering collection search behind the
// Section 4 families — the same fixed parameterization the CLI experiments
// use (cover.Find(4, 12, 2, seed, 500) at R = 2).
const coverSeed = 7

// DefaultRegistry wires every family/algorithm pairing the reduction
// engine certifies, at the same k = 2 (resp. T = 4) parameterizations the
// exhaustive experiments use. Both `hardness -certify` and the job server
// resolve pairings from it.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.mustRegister(certifier(Pairing{Family: "mds", Alg: "collect", Params: "k=2", Exact: true},
		func() (lbfamily.Family[*graph.Graph], reduction.AlgorithmOf[*graph.Graph], error) {
			fam, err := mdslb.New(2)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Graph]{}, err
			}
			return fam, reduction.CollectMDS(fam), nil
		}))
	r.mustRegister(certifier(Pairing{Family: "mds", Alg: "greedy", Params: "k=2"},
		func() (lbfamily.Family[*graph.Graph], reduction.AlgorithmOf[*graph.Graph], error) {
			fam, err := mdslb.New(2)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Graph]{}, err
			}
			return fam, reduction.GreedyMDS(fam), nil
		}))
	// collect-retry needs a wider bandwidth (three ARQ header bits per
	// frame) and a larger round guard than the defaults, so its Runner
	// sizes the config from the family stats before certifying.
	r.mustRegister(Pairing{
		Family: "mds", Alg: "collect-retry", Params: "k=2", Exact: true,
		Build: func() (Runner, error) {
			fam, err := mdslb.New(2)
			if err != nil {
				return nil, err
			}
			stats, err := lbfamily.MeasureStats(fam)
			if err != nil {
				return nil, err
			}
			alg := reduction.CollectRetryMDS(fam)
			return func(ctx context.Context, cfg reduction.Config) (*reduction.Report, error) {
				if cfg.Bandwidth == 0 {
					cfg.Bandwidth = algorithms.CollectRetryMinBandwidth(stats.N)
				}
				if cfg.MaxRounds == 0 {
					cfg.MaxRounds = algorithms.CollectRetryRoundsCap(stats.N)
				}
				return reduction.CertifyCtx(ctx, fam, alg, cfg)
			}, nil
		},
	})
	r.mustRegister(certifier(Pairing{Family: "mvc", Alg: "matching", Params: "k=2"},
		func() (lbfamily.Family[*graph.Graph], reduction.AlgorithmOf[*graph.Graph], error) {
			fam, err := mvclb.New(2)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Graph]{}, err
			}
			return fam, reduction.MatchingMVC(fam), nil
		}))
	r.mustRegister(certifier(Pairing{Family: "maxcut", Alg: "sampled", Params: "k=2,p=0.5"},
		func() (lbfamily.Family[*graph.Graph], reduction.AlgorithmOf[*graph.Graph], error) {
			fam, err := maxcutlb.New(2)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Graph]{}, err
			}
			a, err := reduction.SampledMaxCut(fam, 0.5)
			return fam, a, err
		}))
	r.mustRegister(certifier(Pairing{Family: "maxcut", Alg: "exact", Params: "k=2,p=1", Exact: true},
		func() (lbfamily.Family[*graph.Graph], reduction.AlgorithmOf[*graph.Graph], error) {
			fam, err := maxcutlb.New(2)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Graph]{}, err
			}
			a, err := reduction.SampledMaxCut(fam, 1)
			return fam, a, err
		}))
	r.mustRegister(certifier(Pairing{Family: "hamlb", Alg: "collect", Params: "k=2", Exact: true},
		func() (lbfamily.Family[*graph.Digraph], reduction.AlgorithmOf[*graph.Digraph], error) {
			fam, err := hamlb.New(2)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Digraph]{}, err
			}
			return fam, reduction.CollectHamPath(fam), nil
		}))
	r.mustRegister(certifier(Pairing{Family: "hamlb", Alg: "greedy-path", Params: "k=2"},
		func() (lbfamily.Family[*graph.Digraph], reduction.AlgorithmOf[*graph.Digraph], error) {
			fam, err := hamlb.New(2)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Digraph]{}, err
			}
			return fam, reduction.GreedyHamPath(fam), nil
		}))
	r.mustRegister(certifier(Pairing{Family: "dir-steiner", Alg: "collect", Params: "T=4,L=12,r=2", BuildSeed: coverSeed, Exact: true},
		func() (lbfamily.Family[*graph.Digraph], reduction.AlgorithmOf[*graph.Digraph], error) {
			c, err := cover.Find(4, 12, 2, coverSeed, 500)
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Digraph]{}, err
			}
			fam, err := kmdslb.NewDirSteiner(kmdslb.Params{Collection: c, R: 2})
			if err != nil {
				return nil, reduction.AlgorithmOf[*graph.Digraph]{}, err
			}
			return fam, reduction.CollectDirSteiner(fam), nil
		}))
	return r
}
