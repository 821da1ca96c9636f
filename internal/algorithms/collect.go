package algorithms

import (
	"fmt"
	"math/bits"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// This file implements the collect upper bound as a real simulator
// program, so its communication is metered message by message (unlike
// CollectAndSolve, which only computes the round count analytically). One
// program serves both graph kinds; a per-kind record codec supplies what
// differs.
//
// Protocol: every vertex gossips records to all neighbors, one
// fixed-length frame chunk per record per round. On a graph a record is
// the canonical weighted edge {u, v, w} (u < v); on a digraph it is the
// oriented weighted arc (from, to, w), gossiped over full-duplex links so
// records also flow against arc direction. A record's frame is
// 1 + weightChunks messages: first the id chunk a*n + b (which always fits
// the CONGEST bandwidth B >= 2*ceil(log2(n+1)) because a*n + b < n^2 <=
// 2^B), then the weight in B-bit little-endian chunks (zero chunks when
// every kept weight is exactly 1; zero- and alpha-weighted arcs, as in the
// directed Steiner family, force a weight chunk). Both endpoints of an
// edge or arc know it at wakeup; each vertex relays every record it learns
// to every neighbor exactly once, and receivers deduplicate. After the
// round budget expires the evaluating vertices reconstruct the collected
// instance and solve locally.
//
// Who evaluates depends on the collection mode. With full collection
// (Keep == nil) every vertex learns its entire (weakly) connected
// component, so at the budget a union-find over its records tells it the
// component's minimum id without building a graph. That minimum-id vertex
// is the root: only it reconstructs the instance and evaluates Eval on its
// component — disconnected instances (e.g. the MDS family's all-zeros
// graph) are handled by summing the per-component values, which is exact
// for component-additive quantities like the domination number. A vertex
// with a smaller link neighbor skips the union-find: it learned that
// link's record at wakeup, so it is never a root. With a Keep filter the
// collected records no longer witness connectivity, so the instance must
// be (weakly) connected and vertex 0 is the sole root, evaluating Eval on
// the full filtered collection. A record the reconstruction rejects is
// reported by vertex 0, which is a root in either mode. Reconstruction
// carries edges, arcs and their weights but not remote vertex weights, so
// Eval must not depend on non-default vertex weights.
//
// Node state is reused, not rebuilt: the factory keeps each vertex's node
// in its congest.Arena slot (Local.Slot) and resets it in place, so a
// sweep worker's pairs reuse the record stores, the graphs a root
// reconstructs into (cleared, not reallocated; a component that spans
// every vertex is evaluated as collected, without an induced copy) and,
// through the spec's RootEval, the root's solver scratch. Non-roots output
// one shared zero value; a root outputs a copy of its result.
//
// The budget frame*(T + n + 2) + 4, with T the number of kept records,
// dominates the classic pipelined-flooding bound frame*(T + D): a record
// waits behind at most T-1 earlier frames per hop and travels at most
// D <= n - 1 hops. Nodes terminate at the budget rather than detecting
// quiescence — the budget is computed by the harness from (n, m), the
// same simulation shortcut CollectAndSolve documents.

// Kind is a graph kind the collect programs run on.
type Kind interface {
	*graph.Graph | *graph.Digraph
	N() int
}

// CollectSpec configures one run of the gossip collect program on
// instances of kind G.
type CollectSpec[G Kind] struct {
	// Keep filters which records are collected (nil keeps every one):
	// edges {a, b} with a < b on a graph, arcs a -> b on a digraph. The
	// filter must be deterministic — both endpoints evaluate it
	// independently (shared randomness). A non-nil Keep requires a
	// (weakly) connected instance (see above).
	Keep func(a, b int, w int64) bool
	// Eval runs at each root on its collected instance: the root's
	// (weakly) connected component, reindexed ascending so a spanning
	// component keeps original ids (full collection), or the whole
	// filtered collection (Keep != nil). The per-root values are combined
	// by CollectTotal.
	Eval *RootEval[G]
}

// RootEval is a root evaluation, in the pattern of lbfamily's
// NewPredicate: New returns an evaluator that may own solver scratch and
// is not safe for concurrent use. A node makes its evaluator the first
// time it evaluates and keeps it in its reused node state for as long as
// later runs name the same *RootEval, so an algorithm that shares one
// RootEval across its pairs builds each sweep worker's scratch once; a
// node that meets another RootEval makes a fresh evaluator, so
// algorithms that happen to reuse one arena never share scratch. The
// collected instance is node state the next run clears: an evaluator
// must not keep it.
type RootEval[G Kind] struct {
	New func() func(collected G) (int64, error)
}

// Stateless returns a RootEval for an evaluation that keeps no scratch:
// every node evaluates with eval itself.
func Stateless[G Kind](eval func(collected G) (int64, error)) *RootEval[G] {
	return &RootEval[G]{New: func() func(G) (int64, error) { return eval }}
}

// CollectFactory builds the gossip program for g and returns the node
// factory together with the round budget baked into it. bandwidth must be
// the BandwidthBits the simulation will run with (0 selects the default),
// because the frame layout depends on it.
func CollectFactory[G Kind](g G, bandwidth int, spec CollectSpec[G]) (congest.Factory, int, error) {
	codec := codecOf[G]()
	n := g.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("collect requires a non-empty %s", codec.noun)
	}
	if spec.Keep != nil && !codec.connected(g) {
		return nil, 0, fmt.Errorf("filtered collect requires a %s", codec.connectedNoun)
	}
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(n)
	}
	maxPayload := int64(1)<<uint(bandwidth) - 1
	if int64(n)*int64(n)-1 > maxPayload {
		return nil, 0, fmt.Errorf("bandwidth %d cannot carry %s ids of an n=%d %s", bandwidth, codec.elem, n, codec.noun)
	}
	records, wchunks, err := codec.layout(g, spec.Keep, bandwidth)
	if err != nil {
		return nil, 0, err
	}
	frame := 1 + wchunks
	budget := frame*(records+n+2) + 4
	factory := func(local congest.Local) congest.Node {
		c := reuse[collectNode[G]](local)
		c.init(local, spec, n, bandwidth, budget, wchunks, records)
		return c
	}
	return factory, budget, nil
}

// reuse returns the node state of type *T that the vertex's arena slot
// holds, or stores a new one there (any other value in the slot, left by
// another program, is replaced). Without a slot the state is fresh.
func reuse[T any](local congest.Local) *T {
	if local.Slot == nil {
		return new(T)
	}
	if t, ok := (*local.Slot).(*T); ok {
		return t
	}
	t := new(T)
	*local.Slot = t
	return t
}

// recordCodec is what the collect program needs of its graph kind G: the
// words of its error messages, the connectivity a filtered collection
// requires, the kept records' frame layout, the records a vertex knows at
// wakeup, and the graph an elected root reconstructs into.
type recordCodec[G Kind] struct {
	noun, connectedNoun, elem string
	connected                 func(g G) bool
	// layout scans g's kept records at chunkBits-wide weight chunks.
	layout func(g G, keep func(a, b int, w int64) bool, chunkBits int) (records, wchunks int, err error)
	// seed learns the kept records incident to the waking vertex.
	seed func(s *recordStore, local congest.Local, keep func(a, b int, w int64) bool)
	// clear empties *g to n isolated vertices, making it on first use.
	clear func(g *G, n int)
	// add inserts the edge {a, b} or the arc a -> b with weight w.
	add func(g G, a, b int, w int64) error
}

// edgeCodec collects canonical u < v edges.
var edgeCodec = recordCodec[*graph.Graph]{
	noun: "graph", connectedNoun: "connected graph", elem: "edge",
	connected: (*graph.Graph).IsConnected,
	layout: func(g *graph.Graph, keep func(a, b int, w int64) bool, chunkBits int) (int, int, error) {
		return frameLayout(g.Edges(), edgeRecord, keep, chunkBits, "edge {%d,%d}")
	},
	seed: func(s *recordStore, local congest.Local, keep func(a, b int, w int64) bool) {
		for i, nbr := range local.Neighbors {
			u, v, w := local.ID, nbr, local.EdgeWeights[i]
			if u > v {
				u, v = v, u
			}
			if keep == nil || keep(u, v, w) {
				s.learn(u, v, w)
			}
		}
	},
	clear: func(g **graph.Graph, n int) {
		if *g == nil {
			*g = graph.New(n)
			return
		}
		(*g).Clear(n)
	},
	add: (*graph.Graph).AddWeightedEdge,
}

// arcCodec collects oriented arcs, out-arcs then in-arcs at wakeup.
var arcCodec = recordCodec[*graph.Digraph]{
	noun: "digraph", connectedNoun: "weakly connected digraph", elem: "arc",
	connected: func(d *graph.Digraph) bool { return d.Underlying().IsConnected() },
	layout: func(d *graph.Digraph, keep func(a, b int, w int64) bool, chunkBits int) (int, int, error) {
		return frameLayout(d.Arcs(), arcRecord, keep, chunkBits, "arc (%d,%d)")
	},
	seed: func(s *recordStore, local congest.Local, keep func(a, b int, w int64) bool) {
		for i, to := range local.OutNeighbors {
			if w := local.OutWeights[i]; keep == nil || keep(local.ID, to, w) {
				s.learn(local.ID, to, w)
			}
		}
		for i, from := range local.InNeighbors {
			if w := local.InWeights[i]; keep == nil || keep(from, local.ID, w) {
				s.learn(from, local.ID, w)
			}
		}
	},
	clear: func(d **graph.Digraph, n int) {
		if *d == nil {
			*d = graph.NewDigraph(n)
			return
		}
		(*d).Clear(n)
	},
	add: (*graph.Digraph).AddWeightedArc,
}

// codecOf returns the record codec of kind G.
func codecOf[G Kind]() *recordCodec[G] {
	var c any = &edgeCodec
	if _, ok := any(*new(G)).(*graph.Digraph); ok {
		c = &arcCodec
	}
	return c.(*recordCodec[G])
}

// frameLayout scans the kept records of an instance's edges (or arcs)
// and derives the frame shape: the record count T, and the number of
// chunkBits-wide weight chunks (zero when every kept weight is exactly 1).
// ends maps an item to its record; where formats its endpoints for the
// negative-weight error. The retry variant's chunks are bandwidth minus
// its header.
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

func arcRecord(a graph.Arc) (int, int, int64) { return a.From, a.To, a.Weight }

// CollectTotal sums the root values of a finished collect or collect-retry
// run, on either graph kind: the single root's value under filtered
// collection, the per-component values under full collection (exact for
// component-additive quantities).
func CollectTotal(res *congest.Result) (int64, error) {
	var total int64
	roots := 0
	for v, out := range res.Outputs {
		c, ok := out.(collectOutput)
		if !ok {
			return 0, fmt.Errorf("vertex %d did not run the collect program", v)
		}
		if !c.root {
			continue
		}
		if c.err != nil {
			return 0, fmt.Errorf("root %d: %w", v, c.err)
		}
		roots++
		total += c.value
	}
	if roots == 0 {
		return 0, fmt.Errorf("no root produced a value")
	}
	return total, nil
}

// collectNode is the collect program over the shared record store; the
// retransmitting variant embeds its graph instantiation. The factory
// keeps one per vertex in the arena slot and resets it every run.
type collectNode[G Kind] struct {
	recordStore
	spec CollectSpec[G]
	// collected and component are a root's reconstruction graphs: every
	// record, and the root's component reindexed when it does not span.
	collected, component G
	// eval is the evaluator made by evalOf.New (see RootEval).
	eval   func(G) (int64, error)
	evalOf *RootEval[G]
}

// init resets the node for a run and seeds the record store with the
// vertex's incident kept records.
func (c *collectNode[G]) init(local congest.Local, spec CollectSpec[G], n, cw, budget, wchunks, records int) {
	c.spec = spec
	c.reset(local.ID, n, local.Neighbors, spec.Keep == nil, cw, wchunks, budget, records)
	codecOf[G]().seed(&c.recordStore, local, spec.Keep)
}

// Round gossips; at the budget the roots reconstruct and evaluate.
func (c *collectNode[G]) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	if c.gossip(round, inbox) {
		c.finish()
		return nil, true
	}
	return c.outbox, false
}

// finish elects the root and, at a root, reconstructs the collected
// instance and evaluates it: the root's component (reindexed) under full
// collection, the whole filtered collection otherwise. A record the
// reconstruction rejects makes vertex 0, the one root in both collection
// modes, output the error; any other root then produces no output.
func (c *collectNode[G]) finish() {
	if !c.elect() {
		return
	}
	codec := codecOf[G]()
	codec.clear(&c.collected, c.n)
	for _, r := range c.records {
		a, b := c.ends(r)
		if err := codec.add(c.collected, a, b, r.w); err != nil {
			if c.id == 0 {
				c.out = collectOutput{root: true, err: fmt.Errorf("reconstructing collected %s: %w", codec.noun, err)}
			}
			return
		}
	}
	c.out.root = true
	g := c.collected
	if c.full {
		g = c.rootComponent(codec)
	}
	c.out.value, c.out.err = c.evaluator()(g)
}

// rootComponent returns the root's component of the collected instance,
// reindexed ascending: the collected instance itself when the component
// spans every vertex, otherwise its copy in the component graph.
func (c *collectNode[G]) rootComponent(codec *recordCodec[G]) G {
	k := c.reindex()
	if k == c.n {
		return c.collected
	}
	codec.clear(&c.component, k)
	for _, r := range c.records {
		// The collected instance accepted every record, so both ends are
		// in range and the component gets no duplicate.
		if a, b := c.ends(r); c.index[a] >= 0 && c.index[b] >= 0 {
			_ = codec.add(c.component, c.index[a], c.index[b], r.w)
		}
	}
	return c.component
}

// evaluator returns the node's evaluator of the spec's RootEval, made
// on first use.
func (c *collectNode[G]) evaluator() func(G) (int64, error) {
	if ev := c.spec.Eval; c.evalOf != ev {
		c.eval, c.evalOf = ev.New(), ev
	}
	return c.eval
}
