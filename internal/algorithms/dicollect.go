package algorithms

import (
	"fmt"

	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
)

// This file implements collect-and-solve for directed instances as a real
// dicongest program, the directed twin of collect.go: every vertex gossips
// *arc* records over its full-duplex links, one fixed-length frame chunk
// per arc per round. A record is the oriented weighted arc (from, to, w);
// its frame is 1 + weightChunks messages: first the id chunk from*n + to
// (which fits the CONGEST bandwidth B >= 2*ceil(log2(n+1))), then the
// weight in B-bit little-endian chunks (zero chunks when every kept weight
// is exactly 1 — zero- and alpha-weighted arcs, as in the directed Steiner
// family, force a weight chunk). Both endpoints of an arc know it at
// wakeup; every vertex relays every record it learns to every link
// neighbor exactly once, and receivers deduplicate.
//
// Who evaluates depends on the collection mode. With full collection
// (Keep == nil) every vertex learns its entire weakly-connected component
// (links are full duplex, so records flow against arc direction too); a
// union-find over the records at the budget elects the minimum-id vertex
// of each weak component as its root, and only the root reconstructs and
// evaluates Eval on the induced component sub-digraph — disconnected
// instances are handled by summing the per-component values, exact for
// component-additive quantities. With a Keep filter the collected records
// no longer witness connectivity, so the digraph must be weakly connected
// and vertex 0 is the sole root. Reconstruction carries arcs and their
// weights but not remote vertex weights (like the undirected collect), so
// Eval must not depend on non-default vertex weights.
//
// The budget frame*(T + n + 2) + 4, with T the number of kept records,
// dominates the pipelined-flooding bound frame*(T + D) exactly as in the
// undirected analysis; nodes terminate at the budget rather than detecting
// quiescence.

// DiCollectSpec configures one run of the directed gossip collect program.
type DiCollectSpec struct {
	// Keep filters which arcs are collected (nil keeps every arc). The
	// filter must be deterministic — both endpoints evaluate it
	// independently (shared randomness). A non-nil Keep requires a weakly
	// connected digraph (see above).
	Keep func(from, to int, w int64) bool
	// Eval runs at each root on its collected digraph: the root's weak
	// component (reindexed ascending, so a spanning component keeps
	// original ids) or the whole filtered collection (Keep != nil). The
	// per-root values are combined by DiCollectTotal.
	Eval func(collected *graph.Digraph) (int64, error)
}

// DiCollectFactory builds the directed gossip program for d and returns
// the node factory together with the round budget baked into it. bandwidth
// must be the BandwidthBits the simulation will run with (0 selects the
// default), because the frame layout depends on it.
func DiCollectFactory(d *graph.Digraph, bandwidth int, spec DiCollectSpec) (dicongest.Factory, int, error) {
	n := d.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("collect requires a non-empty digraph")
	}
	if spec.Keep != nil && !weaklyConnected(d) {
		return nil, 0, fmt.Errorf("filtered collect requires a weakly connected digraph")
	}
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(n)
	}
	maxPayload := int64(1)<<uint(bandwidth) - 1
	if int64(n)*int64(n)-1 > maxPayload {
		return nil, 0, fmt.Errorf("bandwidth %d cannot carry arc ids of an n=%d digraph", bandwidth, n)
	}
	records, wchunks, err := frameLayout(d.Arcs(), arcRecord, spec.Keep, bandwidth, "arc (%d,%d)")
	if err != nil {
		return nil, 0, err
	}
	frame := 1 + wchunks
	budget := frame*(records+n+2) + 4
	factory := func(local dicongest.Local) dicongest.Node {
		return newDiCollectNode(local, n, bandwidth, budget, wchunks, records, spec)
	}
	return factory, budget, nil
}

func arcRecord(a graph.Arc) (int, int, int64) { return a.From, a.To, a.Weight }

// weaklyConnected reports whether d's underlying undirected structure is
// connected.
func weaklyConnected(d *graph.Digraph) bool {
	return d.Underlying().IsConnected()
}

// DiCollectTotal sums the root values of a finished run: the single root's
// value under filtered collection, the per-weak-component values under
// full collection (exact for component-additive quantities).
func DiCollectTotal(res *dicongest.Result) (int64, error) {
	return sumRoots(res.Outputs, "directed collect")
}

// diCollectNode is the directed program over the shared record store:
// records are arcs (from, to, w), so the store's key from*n + to is
// already oriented.
type diCollectNode struct {
	recordStore
	spec   DiCollectSpec
	outbox []dicongest.Message
}

func newDiCollectNode(local dicongest.Local, n, bw, budget, wchunks, records int, spec DiCollectSpec) *diCollectNode {
	c := &diCollectNode{
		recordStore: newRecordStore(local.ID, n, local.Neighbors, spec.Keep == nil, bw, wchunks, budget, records),
		spec:        spec,
		outbox:      make([]dicongest.Message, 0, len(local.Neighbors)),
	}
	for i, to := range local.OutNeighbors {
		c.consider(local.ID, to, local.OutWeights[i])
	}
	for i, from := range local.InNeighbors {
		c.consider(from, local.ID, local.InWeights[i])
	}
	return c
}

func (c *diCollectNode) consider(from, to int, w int64) {
	if c.spec.Keep == nil || c.spec.Keep(from, to, w) {
		c.learn(from, to, w)
	}
}

// Round ingests the per-neighbor frame streams and emits the next chunk of
// each neighbor's stream; at the budget the roots reconstruct and evaluate.
func (c *diCollectNode) Round(round int, inbox []dicongest.Incoming) ([]dicongest.Message, bool) {
	i := 0
	for _, msg := range inbox {
		var ok bool
		if i, ok = c.rank(msg.From, i); ok {
			c.ingest(i, msg.Payload)
		}
	}
	if round >= c.budget {
		c.finish()
		return nil, true
	}
	c.outbox = c.outbox[:0]
	for i, nbr := range c.nbrs {
		if chunk, ok := c.chunk(i); ok {
			c.outbox = append(c.outbox, dicongest.Message{To: nbr, Payload: chunk})
			c.advance(i)
		}
	}
	return c.outbox, false
}

// finish elects the root and, at a root, reconstructs the collected
// digraph and evaluates it: the root's weak component (the induced
// sub-digraph) under full collection, the whole filtered collection
// otherwise.
func (c *diCollectNode) finish() {
	if !c.elect() {
		return
	}
	collected := graph.NewDigraph(c.n)
	c.settle("digraph", collected.AddWeightedArc, func() (int64, error) {
		if c.full {
			collected, _ = collected.InducedSubdigraph(c.member)
		}
		return c.spec.Eval(collected)
	})
}
