// Package congest simulates the CONGEST model of distributed computing:
// n nodes communicate over the links of a network in synchronous rounds,
// sending at most one B-bit message per link per direction per round,
// with B = O(log n) (the paper's Section 1 setting).
//
// Run takes either graph kind. On an undirected graph the links are its
// edges. On a digraph every arc is a full-duplex link (antiparallel arc
// pairs collapse to one link), and arc directions and weights are input
// data each endpoint knows at wakeup: the setting of the paper's directed
// constructions (Theorem 2.2's Hamiltonian path, Theorem 4.7's directed
// Steiner tree), where the network is bidirectional and only the
// instance is oriented. The Theorem 1.1 accounting is the same for both.
//
// The simulator is deterministic and single-goroutine: node programs are
// state machines driven round by round. It meters rounds, messages and —
// when a vertex bipartition is supplied — the messages and bits crossing
// the cut, which is exactly the quantity that the Alice-Bob framework of
// Theorem 1.1 charges for. On a digraph the crossing links are the arc
// cut E_cut (antiparallel cut arcs share one link).
//
// The core is allocation-free in steady state: Run lowers either graph
// kind to one channel CSR (per-directed-channel slots for O(1) message
// validation, duplicate detection and delivery) and double-buffers flat,
// CSR-offset inbox arrays, so after setup no heap allocation happens per
// round. Inboxes are delivered in ascending sender id order by
// construction — no sorting.
package congest

import (
	"fmt"
	"slices"

	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// Message is an outgoing message: a payload addressed to a neighbor.
type Message struct {
	To      int
	Payload int64
}

// Incoming is a received message tagged with its sender.
type Incoming struct {
	From    int
	Payload int64
}

// Local is the information a node knows at wakeup: its id, the network
// size, its link neighbors (sorted by id: the vertices it can exchange
// messages with), its own vertex weight, and optional problem-specific
// input. On an undirected run EdgeWeights is index-aligned with
// Neighbors and the four directed fields are nil. On a directed run
// EdgeWeights is nil, Neighbors is the union of out- and in-neighbors,
// and the out-arcs and in-arcs come with their weights (index-aligned,
// sorted by the other endpoint's id).
//
// The five slices are served from the run's arena buffers: they are
// read-only, and valid only until the next Run on the same Arena. A
// program that keeps them beyond its run must copy them.
type Local struct {
	ID           int
	N            int
	Neighbors    []int
	EdgeWeights  []int64
	OutNeighbors []int
	OutWeights   []int64
	InNeighbors  []int
	InWeights    []int64
	VertexWeight int64
	Data         interface{}
	// Slot is this vertex's slot in the run's Arena, owned by the
	// factory: it holds whatever the factory stored there on an earlier
	// run over the same arena (nil on a fresh arena, and on every run
	// without one). A factory may keep its node state there and reset it
	// in place instead of allocating. Any factory may run on an arena, so
	// it must check the type of what it finds, and a value it stores
	// must not be shared with another vertex or another arena.
	Slot *any
}

// Node is one vertex's program. Round is called once per synchronous round
// with the messages received at the start of the round (round 0 has an
// empty inbox); it returns the messages to send and whether the node has
// terminated. A terminated node's Round is no longer called and it sends
// nothing further.
//
// The inbox slice is only valid for the duration of the Round call: the
// simulator reuses its backing storage across rounds.
type Node interface {
	Round(round int, inbox []Incoming) (outbox []Message, done bool)
	// Output returns the node's final (or current) output value.
	Output() interface{}
}

// Factory constructs the program for one vertex.
type Factory func(local Local) Node

// Options configures a simulation. The zero value selects defaults.
type Options struct {
	// BandwidthBits is the per-message bit budget B. 0 selects
	// 2*ceil(log2(n+1)), the standard O(log n) CONGEST bandwidth.
	BandwidthBits int
	// MaxRounds aborts runaway programs: at most MaxRounds rounds are
	// executed. 0 selects 4*n^2 + 64.
	MaxRounds int
	// CutSide, if non-nil, marks Alice's side of a bipartition; messages
	// crossing the cut are metered (Theorem 1.1 accounting).
	CutSide []bool
	// Meter, if non-nil, observes every accepted message with its cut
	// classification (see Meter). It requires CutSide; Run rejects a nil
	// or wrongly-sized bipartition with a descriptive error instead of
	// silently skipping the classification.
	Meter Meter
	// Faults, if non-nil, opts the run into deterministic fault injection:
	// seeded per-link drops, bounded FIFO delivery delay, crash-stop nodes
	// and permanent link failures (see internal/faults). Faults act after
	// send validation and metering — a dropped or delayed message still
	// costs its sender bandwidth and is still observed by Meter; the
	// network simply loses or holds it. Link failures apply to the
	// unordered vertex pair, so antiparallel arcs fail together. The same
	// graph + plan replays bit-identically, and with Faults == nil the
	// round loop is untouched (still allocation-free, like the Meter hook).
	Faults *faults.Plan
	// Trace, if non-nil, observes every synchronous round after it
	// executes (see Tracer and RoundTrace). Strictly opt-in like Meter
	// and Faults: with Trace == nil the round loop pays one nil-check
	// per round and stays allocation-free; with a tracer installed the
	// callback receives a stack-passed struct, so an allocation-free
	// tracer keeps the run allocation-free.
	Trace Tracer
	// Arena, if non-nil, lends Run reusable setup scratch — channel CSR,
	// routing index, inbox buffers, fault rings — so a caller looping
	// over many runs (the sharded certify sweep) amortizes the per-run
	// setup allocations away. Results are bit-identical with or without
	// an arena; an Arena must not be shared by concurrent Runs.
	Arena *Arena
}

// Arena is reusable per-run scratch for Run: every internal buffer the
// simulator would otherwise allocate per run (a digraph's channel CSR,
// the dense routing table, receive-slot map, cut classification,
// double-buffered inboxes, fault rings, node table, and the flat buffers
// behind every vertex's Local view) is borrowed from the arena and grown
// on demand, so steady-state reuse allocates only the Result and its
// outputs slice, plus what the node programs allocate themselves. The
// arena also keeps one factory-owned slot per vertex (Local.Slot) across
// runs, where a program can keep its node state for reuse. The zero
// value is ready to use. An arena is not safe for concurrent use: give
// each goroutine its own.
type Arena struct {
	slots       []any
	viewInts    []int
	viewWts     []int64
	nodes       []Node
	chOffsets   []int32
	chNbr       []int32
	denseIdx    []int32
	sparseIdx   map[int64]int32
	recvAt      []int32
	slotDir     []Direction
	crashAt     []int32
	crashed     []bool
	ringPayload []int64
	ringStamp   []int32
	payload     []int64
	stamp       []int32
	lastSent    []int32
	inbox       []Incoming
	done        []bool
}

// arenaSlice returns *buf resized to n, reusing the backing array when
// capacity allows; element contents are unspecified — callers that rely
// on zero values must clear or overwrite.
func arenaSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Metrics are the measured costs of a simulation.
type Metrics struct {
	Rounds        int
	Messages      int64
	CutMessages   int64
	CutBits       int64
	BandwidthBits int
}

// Result is the outcome of a simulation: metrics plus per-vertex outputs.
type Result struct {
	Metrics
	Outputs []interface{}
}

// DefaultBandwidth returns the default per-message bit budget for an
// n-vertex network: 2*ceil(log2(n+1)), i.e. Θ(log n).
func DefaultBandwidth(n int) int {
	b := 1
	for (1 << uint(b)) < n+1 {
		b++
	}
	return 2 * b
}

// channels is the CSR every run routes over: vertex v's window
// nbr[offsets[v]:offsets[v+1]] lists its link neighbors in ascending id
// order, and slot offsets[v]+i is the directed channel v -> nbr[offsets[v]+i].
type channels struct {
	offsets []int32
	nbr     []int32
}

func (ch *channels) window(v int) []int32 { return ch.nbr[ch.offsets[v]:ch.offsets[v+1]] }

// network is an instance of either kind lowered to its channel CSR.
// Below lowering, Run never asks which kind it has, except to build the
// Local views.
type network struct {
	g   *graph.Graph   // the undirected instance, or nil
	d   *graph.Digraph // the directed instance, or nil
	adj *graph.CSR     // g's frozen CSR, or d's out-adjacency
	ch  channels
}

func (net *network) n() int {
	if net.g != nil {
		return net.g.N()
	}
	return net.d.N()
}

// lower builds the channel CSR. An undirected graph's frozen CSR is its
// channel CSR as it is; a digraph's links are built into arena buffers.
func (net *network) lower(ar *Arena) {
	if net.g != nil {
		net.adj = net.g.Freeze()
		net.ch.offsets, net.ch.nbr = net.adj.Flat()
		return
	}
	net.adj = net.d.FreezePatchable()
	net.ch = buildChannels(net.d, net.adj, ar)
}

// buildChannels lowers a digraph to its link CSR: each window is v's
// out-window plus the in-neighbors that are not also out-neighbors,
// sorted, so an antiparallel arc pair is one channel per direction.
func buildChannels(d *graph.Digraph, out *graph.CSR, ar *Arena) channels {
	n := d.N()
	ch := channels{offsets: arenaSlice(&ar.chOffsets, n+1)}
	ch.offsets[0] = 0
	if cap(ar.chNbr) < 2*d.M() {
		ar.chNbr = make([]int32, 0, 2*d.M())
	}
	ch.nbr = ar.chNbr[:0]
	for v := 0; v < n; v++ {
		start := len(ch.nbr)
		onbrs, _ := out.Window(v)
		ch.nbr = append(ch.nbr, onbrs...)
		for _, h := range d.InNeighbors(v) {
			if out.Rank(v, h.To) < 0 {
				ch.nbr = append(ch.nbr, int32(h.To))
			}
		}
		slices.Sort(ch.nbr[start:])
		ch.offsets[v+1] = int32(len(ch.nbr))
	}
	ar.chNbr = ch.nbr
	return ch
}

// views hands out one run's Local views from the arena's flat buffers,
// vertex by vertex in ascending order: a vertex's slices are consecutive
// windows of ints (links, then out- and in-neighbors on a digraph) and
// wts (edge weights, or out- and in-weights). Each window is capped at
// its length, so an append by a node cannot reach a neighbor's view.
type views struct {
	slots []any
	ints  []int
	wts   []int64
}

// views sizes the buffers for every vertex of the run: one int per link
// slot, and on a digraph two ints and two weights per arc.
func (net *network) views(ar *Arena) views {
	links := len(net.ch.nbr)
	ints, wts := links, links
	if net.d != nil {
		ints, wts = links+2*net.d.M(), 2*net.d.M()
	}
	return views{
		slots: arenaSlice(&ar.slots, net.n()),
		ints:  arenaSlice(&ar.viewInts, ints),
		wts:   arenaSlice(&ar.viewWts, wts),
	}
}

func (vs *views) takeInts(k int) []int {
	s := vs.ints[:k:k]
	vs.ints = vs.ints[k:]
	return s
}

func (vs *views) takeWts(k int) []int64 {
	s := vs.wts[:k:k]
	vs.wts = vs.wts[k:]
	return s
}

// local builds v's wakeup view; calls must come in ascending v. A
// directed run finds v's in-arcs by walking its sorted link window and
// keeping each u whose out-window holds v, so they come out sorted with
// no sort; the weight is read from u's out-window.
func (vs *views) local(net *network, v int) Local {
	links := net.ch.window(v)
	local := Local{ID: v, Neighbors: vs.takeInts(len(links)), Slot: &vs.slots[v]}
	for i, u := range links {
		local.Neighbors[i] = int(u)
	}
	if net.g != nil {
		local.N, local.VertexWeight = net.g.N(), net.g.VertexWeight(v)
		_, wts := net.adj.Window(v)
		local.EdgeWeights = vs.takeWts(len(wts))
		copy(local.EdgeWeights, wts)
		return local
	}
	local.N, local.VertexWeight = net.d.N(), net.d.VertexWeight(v)
	onbrs, owts := net.adj.Window(v)
	local.OutNeighbors = vs.takeInts(len(onbrs))
	for i, to := range onbrs {
		local.OutNeighbors[i] = int(to)
	}
	local.OutWeights = vs.takeWts(len(owts))
	copy(local.OutWeights, owts)
	local.InNeighbors = vs.takeInts(net.d.InDegree(v))
	local.InWeights = vs.takeWts(len(local.InNeighbors))
	j := 0
	for _, u := range links {
		if r := net.adj.Rank(int(u), v); r >= 0 {
			_, uw := net.adj.Window(int(u))
			local.InNeighbors[j], local.InWeights[j] = int(u), uw[r]
			j++
		}
	}
	return local
}

// maxDenseEdgeIndex caps the n*n dense routing table at 4 MB; larger
// networks fall back to a prebuilt hash map (still O(1) expected, still
// allocation-free per round).
const maxDenseEdgeIndex = 1 << 10

// edgeIndex resolves (from, to) to the global directed-channel slot in
// O(1), or -1 when the link does not exist. It is built once per Run.
type edgeIndex struct {
	n      int
	dense  []int32         // n*n table, or nil
	sparse map[int64]int32 // used when n > maxDenseEdgeIndex
}

// buildEdgeIndex constructs the routing index, borrowing the table (or
// map) from the arena.
func buildEdgeIndex(ch *channels, ar *Arena) edgeIndex {
	n := len(ch.offsets) - 1
	ei := edgeIndex{n: n}
	if n <= maxDenseEdgeIndex {
		ei.dense = arenaSlice(&ar.denseIdx, n*n)
		for i := range ei.dense {
			ei.dense[i] = -1
		}
		for v := 0; v < n; v++ {
			base := ch.offsets[v]
			for i, to := range ch.window(v) {
				ei.dense[v*n+int(to)] = base + int32(i)
			}
		}
		return ei
	}
	if ar.sparseIdx == nil {
		ar.sparseIdx = make(map[int64]int32, len(ch.nbr))
	} else {
		clear(ar.sparseIdx)
	}
	ei.sparse = ar.sparseIdx
	for v := 0; v < n; v++ {
		base := ch.offsets[v]
		for i, to := range ch.window(v) {
			ei.sparse[int64(v)*int64(n)+int64(to)] = base + int32(i)
		}
	}
	return ei
}

func (ei *edgeIndex) slot(from, to int) int32 {
	if to < 0 || to >= ei.n {
		return -1
	}
	if ei.dense != nil {
		return ei.dense[from*ei.n+to]
	}
	if s, ok := ei.sparse[int64(from)*int64(ei.n)+int64(to)]; ok {
		return s
	}
	return -1
}

// Run simulates the factory's programs on g, an undirected graph or a
// digraph, until every node terminates.
//
//hardness:hotpath
func Run[G *graph.Graph | *graph.Digraph](g G, factory Factory, opts Options) (*Result, error) {
	var net network
	switch g := any(g).(type) {
	case *graph.Graph:
		net.g = g
	case *graph.Digraph:
		net.d = g
	}
	n := net.n()
	if opts.Meter != nil && opts.CutSide == nil {
		return nil, fmt.Errorf("metering enabled (Options.Meter) but no cut bipartition: CutSide is nil, want %d entries marking Alice's side", n)
	}
	if opts.CutSide != nil && len(opts.CutSide) != n {
		return nil, fmt.Errorf("cut bipartition has %d entries for %d vertices: CutSide must mark every vertex", len(opts.CutSide), n)
	}
	if n == 0 {
		return &Result{}, nil
	}
	bandwidth := opts.BandwidthBits
	if bandwidth == 0 {
		bandwidth = DefaultBandwidth(n)
	}
	if bandwidth < 1 || bandwidth > 62 {
		return nil, fmt.Errorf("bandwidth %d out of supported range [1,62]", bandwidth)
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*n*n + 64
	}

	ar := opts.Arena
	if ar == nil {
		ar = &Arena{} // a throwaway arena: every borrow allocates fresh
	}
	net.lower(ar)
	ch := net.ch
	slots := len(ch.nbr)

	nodes := arenaSlice(&ar.nodes, n)
	vs := net.views(ar)
	//hardness:setup
	for v := 0; v < n; v++ {
		nodes[v] = factory(vs.local(&net, v))
	}

	// Routing index: for the directed channel v -> to stored at slot s in
	// v's window, recvAt[s] is the slot of that message in to's inbox (the
	// slot of the reverse channel to -> v).
	ei := buildEdgeIndex(&ch, ar)
	recvAt := arenaSlice(&ar.recvAt, slots)
	for v := 0; v < n; v++ {
		base := int(ch.offsets[v])
		for i, to := range ch.window(v) {
			recvAt[base+i] = ei.slot(int(to), v)
		}
	}
	// slotDir classifies each directed channel relative to the
	// bipartition: internal, Alice→Bob or Bob→Alice. Built only when a cut
	// is supplied, so unmetered runs pay nothing. Every slot is written
	// (the arena may hold a previous run's classification).
	var slotDir []Direction
	if opts.CutSide != nil {
		slotDir = arenaSlice(&ar.slotDir, slots)
		for v := 0; v < n; v++ {
			base := int(ch.offsets[v])
			for i, to := range ch.window(v) {
				if opts.CutSide[v] != opts.CutSide[to] {
					if opts.CutSide[v] {
						slotDir[base+i] = DirAliceToBob
					} else {
						slotDir[base+i] = DirBobToAlice
					}
				} else {
					slotDir[base+i] = DirInternal
				}
			}
		}
	}

	// Fault injection (opt-in, mirroring the Meter hook): the plan is
	// compiled into a per-run injector during setup, and delivery runs
	// through a per-slot ring of RingDepth cells instead of the two-buffer
	// flip, so bounded delays land in future rounds. The fault-free path
	// below is untouched.
	var inj *faults.Injector
	var crashAt []int32
	var crashed []bool
	var ringPayload []int64
	var ringStamp []int32
	ringD := 0
	if opts.Faults != nil {
		var err error
		inj, err = faults.NewInjector(opts.Faults, n, slots)
		if err != nil {
			return nil, fmt.Errorf("fault plan: %w", err)
		}
		for v := 0; v < n; v++ {
			base := int(ch.offsets[v])
			for i, to := range ch.window(v) {
				inj.BindSlot(int32(base+i), v, int(to))
			}
		}
		crashAt = arenaSlice(&ar.crashAt, n)
		for v := range crashAt {
			crashAt[v] = inj.CrashRound(v)
		}
		crashed = arenaSlice(&ar.crashed, n)
		clear(crashed)
		ringD = inj.RingDepth()
		ringPayload = arenaSlice(&ar.ringPayload, slots*ringD)
		ringStamp = arenaSlice(&ar.ringStamp, slots*ringD)
		for i := range ringStamp {
			ringStamp[i] = -1
		}
	}

	// Double-buffered flat inboxes: slot s of the current buffer holds the
	// payload sent over the corresponding directed channel, stamped with
	// the round it is to be delivered in (stale slots are simply never
	// read — no per-round clearing, which also makes arena reuse across
	// runs safe). inboxArena holds the compacted inbox slices handed to
	// Round, one window per vertex, delivered in ascending sender id order
	// by construction. With faults on, the ring arrays above replace the
	// double buffer.
	var curPayload, nextPayload []int64
	var curStamp, nextStamp []int32
	if inj == nil {
		payload := arenaSlice(&ar.payload, 2*slots)
		curPayload, nextPayload = payload[:slots], payload[slots:]
		stamp := arenaSlice(&ar.stamp, 2*slots)
		curStamp, nextStamp = stamp[:slots], stamp[slots:]
		for i := 0; i < slots; i++ {
			curStamp[i] = -1
			nextStamp[i] = -1
		}
	}
	lastSent := arenaSlice(&ar.lastSent, slots)
	for i := 0; i < slots; i++ {
		lastSent[i] = -1
	}
	inboxArena := arenaSlice(&ar.inbox, slots)

	done := arenaSlice(&ar.done, n)
	clear(done)
	metrics := Metrics{BandwidthBits: bandwidth}
	maxPayload := int64(1)<<uint(bandwidth) - 1
	// Per-round trace accounting: plain integer bookkeeping kept cheap
	// enough to run unconditionally; the only per-round branch Trace
	// adds is the single nil-check at the bottom of the loop.
	trActive := n

	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, RoundsExceededError(maxRounds, done)
		}
		allDone := true
		trSentBase := metrics.Messages
		trDelivered, trDropped := 0, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			if inj != nil && int32(round) >= crashAt[v] {
				// Crash-stop: the node executes rounds 0..crash-1 only;
				// messages already addressed to it are lost like messages
				// to any terminated node, and it produces no output.
				done[v] = true
				crashed[v] = true
				trActive--
				continue
			}
			base, end := int(ch.offsets[v]), int(ch.offsets[v+1])
			window := ch.nbr[base:end]
			cnt := 0
			if inj == nil {
				for i := base; i < end; i++ {
					if curStamp[i] == int32(round) {
						inboxArena[base+cnt] = Incoming{From: int(window[i-base]), Payload: curPayload[i]}
						cnt++
					}
				}
			} else {
				ri := round % ringD
				for i := base; i < end; i++ {
					if ringStamp[i*ringD+ri] == int32(round) {
						inboxArena[base+cnt] = Incoming{From: int(window[i-base]), Payload: ringPayload[i*ringD+ri]}
						cnt++
					}
				}
			}
			trDelivered += cnt
			outbox, finished := nodes[v].Round(round, inboxArena[base:base+cnt])
			if finished {
				done[v] = true
				trActive--
			} else {
				allDone = false
			}
			for _, msg := range outbox {
				s := ei.slot(v, msg.To)
				if s < 0 {
					return nil, fmt.Errorf("round %d: node %d sent to non-neighbor %d", round, v, msg.To)
				}
				if lastSent[s] == int32(round) {
					return nil, fmt.Errorf("round %d: node %d sent two messages to %d", round, v, msg.To)
				}
				lastSent[s] = int32(round)
				if msg.Payload < 0 || msg.Payload > maxPayload {
					return nil, fmt.Errorf("round %d: node %d payload %d exceeds %d-bit bandwidth", round, v, msg.Payload, bandwidth)
				}
				if inj == nil {
					nextPayload[recvAt[s]] = msg.Payload
					nextStamp[recvAt[s]] = int32(round + 1)
				} else if at, ok := inj.DeliverAt(round, v, msg.To, s); ok {
					cell := int(recvAt[s])*ringD + at%ringD
					ringPayload[cell] = msg.Payload
					ringStamp[cell] = int32(at)
				} else {
					trDropped++
				}
				metrics.Messages++
				if slotDir != nil {
					dir := slotDir[s]
					if dir != DirInternal {
						metrics.CutMessages++
						metrics.CutBits += int64(bandwidth)
					}
					if opts.Meter != nil {
						opts.Meter.Observe(round, v, msg.To, msg.Payload, bandwidth, dir)
					}
				}
			}
		}
		metrics.Rounds = round + 1
		if opts.Trace != nil {
			opts.Trace.ObserveRound(RoundTrace{
				Round:     round,
				Sent:      int(metrics.Messages - trSentBase),
				Delivered: trDelivered,
				Dropped:   trDropped,
				Active:    trActive,
			})
		}
		if allDone {
			// Messages sent in the final round (or still delayed in the
			// ring) would be delivered to already-terminated nodes; they
			// are dropped (but metered, and the round still counts).
			break
		}
		if inj == nil {
			curPayload, nextPayload = nextPayload, curPayload
			curStamp, nextStamp = nextStamp, curStamp
		}
	}

	outputs := make([]interface{}, n)
	for v := range nodes {
		if crashed != nil && crashed[v] {
			continue // a crashed node produces no output
		}
		outputs[v] = nodes[v].Output()
	}
	return &Result{Metrics: metrics, Outputs: outputs}, nil
}

// RoundsError is the MaxRounds-exhausted failure: the simulation ran its
// full round budget with nodes still live. It is a typed error so callers
// (the retry budget tests, the serving layer) can distinguish an exhausted
// budget from a broken run with errors.As instead of matching messages.
type RoundsError struct {
	Limit int   // the executed round limit
	Live  int   // nodes still running when the limit hit
	N     int   // network size
	First []int // the first few still-running node ids
}

func (e *RoundsError) Error() string {
	suffix := ""
	if e.Live > len(e.First) {
		suffix = ", ..."
	}
	return fmt.Sprintf("simulation exceeded %d rounds with %d of %d nodes still running (nodes %v%s)",
		e.Limit, e.Live, e.N, e.First, suffix)
}

// RoundsExceededError builds the MaxRounds-exhausted *RoundsError from the
// done markers, naming how many nodes are still running and the first few
// of their ids, so runaway programs are diagnosable instead of just "too
// many rounds".
func RoundsExceededError(limit int, done []bool) error {
	e := &RoundsError{Limit: limit, N: len(done)}
	for v, d := range done {
		if d {
			continue
		}
		e.Live++
		if len(e.First) < 4 {
			e.First = append(e.First, v)
		}
	}
	return e
}

// FuncNode adapts a pair of closures to the Node interface, for small
// programs and tests.
type FuncNode struct {
	RoundFunc  func(round int, inbox []Incoming) ([]Message, bool)
	OutputFunc func() interface{}
}

var _ Node = (*FuncNode)(nil)

// Round delegates to RoundFunc.
func (f *FuncNode) Round(round int, inbox []Incoming) ([]Message, bool) {
	return f.RoundFunc(round, inbox)
}

// Output delegates to OutputFunc (nil yields nil).
func (f *FuncNode) Output() interface{} {
	if f.OutputFunc == nil {
		return nil
	}
	return f.OutputFunc()
}
