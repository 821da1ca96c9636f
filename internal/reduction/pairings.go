package reduction

import (
	"fmt"
	"math"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// This file wires concrete algorithm/family pairings for Certify on the
// undirected families: the exact collect-and-solve upper bound on the MDS
// family, two classic approximation baselines that Certify flags as not
// deciding the predicate (greedy dominating set, maximal-matching vertex
// cover), and the Theorem 2.9-style sampling estimator on the weighted
// max-cut family.

// collectAlgorithm runs a metered gossip collect program on either graph
// kind, built by build (algorithms.CollectFactory, or the retransmitting
// algorithms.CollectRetryFactory): eval computes a component-additive
// quantity at each (weak) component root (the domination number, a
// greedy set size, a Hamiltonian path indicator) and answer turns the
// summed total into the predicate decision.
func collectAlgorithm[G lbfamily.Instance](name string, exact bool,
	build func(g G, bandwidth int, spec algorithms.CollectSpec[G]) (congest.Factory, int, error),
	eval func(component G) (int64, error), answer func(total int64) bool) AlgorithmOf[G] {
	return AlgorithmOf[G]{
		Name:  name,
		Exact: exact,
		Prepare: func(g G, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
			factory, _, err := build(g, bandwidth, algorithms.CollectSpec[G]{Eval: eval})
			if err != nil {
				return nil, nil, err
			}
			return factory, func(res *congest.Result) (bool, error) {
				total, err := algorithms.CollectTotal(res)
				if err != nil {
					return false, err
				}
				return answer(total), nil
			}, nil
		},
	}
}

// dominationNumber computes γ(g) exactly via the solver's decision
// oracle. One arena-backed MDSOracle serves all n+1 size queries, so the
// search allocates its solver scratch once per evaluation instead of
// once per query — the eval runs inside every certified pair's collect
// program, so this is certify-sweep hot.
func dominationNumber(g *graph.Graph) (int64, error) {
	var o solver.MDSOracle
	for s := 0; s <= g.N(); s++ {
		ok, err := o.HasDominatingSetOfSize(g, s)
		if err != nil {
			return 0, err
		}
		if ok {
			return int64(s), nil
		}
	}
	return 0, fmt.Errorf("no dominating set up to n=%d", g.N())
}

// CollectMDS decides the Theorem 2.1 predicate exactly by collecting the
// whole graph and solving minimum dominating set at each component root
// (γ is component-additive): the O(m + D) upper bound the Ω̃(n²) lower
// bound nearly matches. Certify reports zero mismatches.
func CollectMDS(fam *mdslb.Family) AlgorithmOf[*graph.Graph] {
	return collectAlgorithm("collect", true, algorithms.CollectFactory, dominationNumber,
		func(total int64) bool { return total <= int64(fam.TargetSize()) })
}

// CollectRetryMDS decides the same predicate as CollectMDS over the
// retransmitting collect variant, so the decision stays exact under
// bounded message-drop and delay fault plans: every per-neighbor chunk
// stream runs a stop-and-wait ARQ and re-sends until acknowledged.
// Callers must raise Config.Bandwidth to at least
// algorithms.CollectRetryMinBandwidth(n) (three header bits ride on
// every frame) and Config.MaxRounds to algorithms.CollectRetryRoundsCap(n)
// — the retry budget exceeds the simulator's default guard on small
// graphs.
func CollectRetryMDS(fam *mdslb.Family) AlgorithmOf[*graph.Graph] {
	return collectAlgorithm("collect-retry", true, algorithms.CollectRetryFactory, dominationNumber,
		func(total int64) bool { return total <= int64(fam.TargetSize()) })
}

// GreedyMDS collects the graph and answers with the sequential greedy
// O(log Δ)-approximation: "yes" iff the summed greedy set size meets the
// target. The greedy set can exceed γ(G) on yes-instances, so Certify
// flags the pairs where the approximation misdecides the exact predicate —
// the gap the paper's Section 2.1 hardness separates.
func GreedyMDS(fam *mdslb.Family) AlgorithmOf[*graph.Graph] {
	return collectAlgorithm("greedy", false, algorithms.CollectFactory,
		func(component *graph.Graph) (int64, error) {
			set, _, err := algorithms.GreedyMDS(component)
			if err != nil {
				return 0, err
			}
			return int64(len(set)), nil
		},
		func(total int64) bool { return total <= int64(fam.TargetSize()) })
}

// MatchingMVC answers the MVC family predicate with the distributed
// maximal-matching 2-approximate vertex cover: "yes" iff the matched
// vertices number at most the cover target M. The cover is only a
// 2-approximation, so yes-instances (τ = M) are routinely misdecided —
// Certify flags them.
func MatchingMVC(fam *mvclb.Family) AlgorithmOf[*graph.Graph] {
	return AlgorithmOf[*graph.Graph]{
		Name:  "matching",
		Exact: false,
		Prepare: func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
			factory := algorithms.MaximalMatchingVCFactory(seed, g.N()+4)
			return factory, func(res *congest.Result) (bool, error) {
				return len(algorithms.MatchedVertices(res)) <= fam.CoverTarget(), nil
			}, nil
		},
	}
}

// SampledMaxCut runs the Theorem 2.9-style estimator on the weighted
// max-cut family: sample each edge with probability p by shared
// randomness, collect only the sampled edges at the root (messages still
// travel over every edge), solve max-cut on the sample and compare the
// scaled optimum against the target M — i.e. decide whether the sample has
// a cut of weight >= p·M. Sampling noise misdecides near-threshold
// instances, which Certify flags; p = 1 recovers an exact (slow) decision.
func SampledMaxCut(fam *maxcutlb.Family, p float64) (AlgorithmOf[*graph.Graph], error) {
	if p <= 0 || p > 1 {
		return AlgorithmOf[*graph.Graph]{}, fmt.Errorf("sampling probability %v out of (0,1]", p)
	}
	threshold := int64(math.Ceil(p * float64(fam.Target())))
	return AlgorithmOf[*graph.Graph]{
		Name:  fmt.Sprintf("sampled-maxcut(p=%.2f)", p),
		Exact: p == 1,
		Prepare: func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
			keep := func(u, v int, w int64) bool {
				if p == 1 {
					return true
				}
				// Shared-randomness coin: both endpoints evaluate the
				// same splitmix64 of (seed, edge id).
				coin := splitmix64(uint64(seed) ^ splitmix64(uint64(u)*uint64(g.N())+uint64(v)))
				return coin < uint64(p*float64(math.MaxUint64))
			}
			spec := algorithms.CollectSpec[*graph.Graph]{
				Keep: keep,
				Eval: func(collected *graph.Graph) (int64, error) {
					ok, err := solver.HasCutOfWeight(collected, threshold)
					if err != nil || !ok {
						return 0, err
					}
					return 1, nil
				},
			}
			factory, _, err := algorithms.CollectFactory(g, bandwidth, spec)
			if err != nil {
				return nil, nil, err
			}
			return factory, func(res *congest.Result) (bool, error) {
				total, err := algorithms.CollectTotal(res)
				return total >= 1, err
			}, nil
		},
	}, nil
}
