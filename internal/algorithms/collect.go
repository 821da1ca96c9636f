package algorithms

import (
	"fmt"
	"math/bits"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// This file implements the collect upper bound as a real simulator
// program, so its communication is metered message by message (unlike
// CollectAndSolve, which only computes the round count analytically).
//
// Protocol: every vertex gossips edge records to all neighbors, one
// fixed-length frame chunk per edge per round. A record is the canonical
// weighted edge {u, v, w}; its frame is 1 + weightChunks messages: first
// the id chunk u*n + v (which always fits the CONGEST bandwidth
// B >= 2*ceil(log2(n+1)) because u*n + v < n^2 <= 2^B), then the weight in
// B-bit little-endian chunks (zero chunks when every kept weight is
// exactly 1). Each vertex relays every record it learns to every neighbor
// exactly once; receivers deduplicate. After the round budget expires the
// evaluating vertices reconstruct the collected graph and solve locally.
//
// Who evaluates depends on the collection mode. With full collection
// (Keep == nil) every vertex learns its entire connected component, so at
// the budget a union-find over its records tells it the component's
// minimum id without building a graph. That minimum-id vertex is the root:
// only it reconstructs the graph and evaluates Eval on its component —
// disconnected instances (e.g. the MDS family's all-zeros graph) are
// handled by summing the per-component values, which is exact for
// component-additive quantities like the domination number. With a Keep
// filter the collected records no longer witness connectivity, so the
// graph must be connected and vertex 0 is the sole root, evaluating Eval
// on the full filtered collection. A record the reconstruction rejects is
// reported by vertex 0, which is a root in either mode.
//
// The budget frame*(T + n + 2) + 4, with T the number of kept records,
// dominates the classic pipelined-flooding bound frame*(T + D): a record
// waits behind at most T-1 earlier frames per hop and travels at most
// D <= n - 1 hops. Nodes terminate at the budget rather than detecting
// quiescence — the budget is computed by the harness from (n, m), the
// same simulation shortcut CollectAndSolve documents.

// CollectSpec configures one run of the gossip collect program.
type CollectSpec struct {
	// Keep filters which edges are collected (nil keeps every edge). The
	// filter must be symmetric in its endpoints and deterministic — both
	// endpoints evaluate it independently (shared randomness). A non-nil
	// Keep requires a connected graph (see above).
	Keep func(u, v int, w int64) bool
	// Eval runs at each root on its collected graph: the root's connected
	// component (reindexed, full collection) or the whole filtered
	// collection (Keep != nil). The per-root values are combined by
	// CollectTotal.
	Eval func(collected *graph.Graph) (int64, error)
}

// CollectFactory builds the gossip program for g and returns the node
// factory together with the round budget baked into it. bandwidth must be
// the BandwidthBits the simulation will run with (0 selects the default),
// because the frame layout depends on it.
func CollectFactory(g *graph.Graph, bandwidth int, spec CollectSpec) (congest.Factory, int, error) {
	n := g.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("collect requires a non-empty graph")
	}
	if spec.Keep != nil && !g.IsConnected() {
		return nil, 0, fmt.Errorf("filtered collect requires a connected graph")
	}
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(n)
	}
	maxPayload := int64(1)<<uint(bandwidth) - 1
	if int64(n)*int64(n)-1 > maxPayload {
		return nil, 0, fmt.Errorf("bandwidth %d cannot carry edge ids of an n=%d graph", bandwidth, n)
	}
	records, wchunks, err := frameLayout(g.Edges(), edgeRecord, spec.Keep, bandwidth, "edge {%d,%d}")
	if err != nil {
		return nil, 0, err
	}
	frame := 1 + wchunks
	budget := frame*(records+n+2) + 4
	factory := func(local congest.Local) congest.Node {
		return newCollectNode(local, n, bandwidth, budget, wchunks, records, spec)
	}
	return factory, budget, nil
}

// frameLayout scans the kept records of an instance's edges (or arcs)
// and derives the frame shape: the record count T, and the number of
// chunkBits-wide weight chunks (zero when every kept weight is exactly 1).
// ends maps an item to its record; where formats its endpoints for the
// negative-weight error. Shared by all three collect factories; the retry
// variant's chunks are bandwidth minus its header.
func frameLayout[E any](items []E, ends func(E) (int, int, int64), keep func(a, b int, w int64) bool, chunkBits int, where string) (records, wchunks int, err error) {
	var maxW int64
	weighted := false
	for _, item := range items {
		a, b, w := ends(item)
		if keep != nil && !keep(a, b, w) {
			continue
		}
		if w < 0 {
			return 0, 0, fmt.Errorf("collect cannot encode negative weight %d on "+where, w, a, b)
		}
		records++
		if w != 1 {
			weighted = true
		}
		if w > maxW {
			maxW = w
		}
	}
	if weighted {
		wchunks = (bits.Len64(uint64(maxW)) + chunkBits - 1) / chunkBits
		if wchunks == 0 {
			wchunks = 1
		}
	}
	return records, wchunks, nil
}

func edgeRecord(e graph.Edge) (int, int, int64) { return e.U, e.V, e.Weight }

// CollectTotal sums the root values of a finished run: the single root's
// value under filtered collection, the per-component values under full
// collection (exact for component-additive quantities).
func CollectTotal(res *congest.Result) (int64, error) {
	return sumRoots(res.Outputs, "collect")
}

// collectCore is the undirected half of the record store, shared by the
// gossip collect program and its retransmitting variant: the incident
// kept edges seeded at wakeup and the end-of-budget reconstruct-and-solve.
type collectCore struct {
	recordStore
	spec CollectSpec
}

type collectNode struct{ collectCore }

func newCollectNode(local congest.Local, n, bw, budget, wchunks, records int, spec CollectSpec) *collectNode {
	return &collectNode{newCollectCore(local, n, bw, budget, wchunks, records, spec)}
}

// newCollectCore seeds the record store with the vertex's incident kept
// edges (canonical u < v orientation).
func newCollectCore(local congest.Local, n, cw, budget, wchunks, records int, spec CollectSpec) collectCore {
	c := collectCore{
		recordStore: newRecordStore(local.ID, n, local.Neighbors, spec.Keep == nil, cw, wchunks, budget, records),
		spec:        spec,
	}
	for i, nbr := range local.Neighbors {
		u, v, w := local.ID, nbr, local.EdgeWeights[i]
		if u > v {
			u, v = v, u
		}
		if spec.Keep == nil || spec.Keep(u, v, w) {
			c.learn(u, v, w)
		}
	}
	return c
}

// Round gossips; at the budget the roots reconstruct and evaluate.
func (c *collectNode) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	if c.gossip(round, inbox) {
		c.finish()
		return nil, true
	}
	return c.outbox, false
}

// finish elects the root and, at a root, reconstructs the collected graph
// and evaluates it: the root's component (reindexed) under full
// collection, the whole filtered collection otherwise.
func (c *collectCore) finish() {
	if !c.elect() {
		return
	}
	collected := graph.New(c.n)
	c.settle("graph", collected.AddWeightedEdge, func() (int64, error) {
		if c.full {
			collected, _ = collected.InducedSubgraph(c.member)
		}
		return c.spec.Eval(collected)
	})
}
