package graph

import "fmt"

// EdgeDelta records one edge mutation: the edge {U, V} either became
// present with weight W (Add) or was removed while carrying weight W
// (!Add). On a Graph the edge is canonical (U < V); on a Digraph it is the
// arc U→V, direction included, as CSR.Edges renders arcs. A weight change
// is recorded as a remove of the old weight followed by an add of the new
// one. Deltas are the currency of the incremental observers built on top
// of the graph: the lower-bound-family verifier folds them into its
// structural hashes in O(1) per delta instead of rehashing the whole graph
// per input pair.
type EdgeDelta struct {
	U, V int
	W    int64
	Add  bool
}

// VertexDelta records one vertex-weight mutation in the same remove/add
// currency as EdgeDelta: vertex V either took on weight W (Add) or gave
// up weight W (!Add), so a weight change is a remove of the old weight
// followed by an add of the new one. Incremental observers fold each
// entry into the affected side's HashWithin with one VertexHash XOR.
type VertexDelta struct {
	V   int
	W   int64
	Add bool
}

// vwChange is the undo-log form of a vertex-weight mutation: Reset
// restores from (the weight at MarkBase time for this entry).
type vwChange struct {
	v    int
	from int64
}

// mutlog is the mutation log both graph kinds embed, together with the
// state it records edits of: adj (a Graph's neighbor lists, a Digraph's
// out-lists) and the vertex weights. It owns the journals, the undo log,
// the patchable snapshot and the fold into SideHashes; the one thing that
// differs by kind is the directed bit, which picks oriented arcs hashed by
// ArcHash over canonical u < v edges hashed by EdgeHash. The adjacency
// edit of a toggle stays with each kind (Graph.toggle, Digraph.toggle).
type mutlog struct {
	adj      [][]Half
	vw       []int64
	directed bool

	// patched is the worker-private FreezePatchable snapshot, spliced in
	// place by the toggles and dropped by other adjacency mutators.
	patched    *CSR
	patchSlack int

	// Vertex-weight mutations are journaled separately from edge
	// mutations (vwJournal / vwUndo) because they fold into different
	// structural hashes.
	journal   []EdgeDelta
	journalOn bool
	undo      []EdgeDelta
	undoOn    bool
	vwJournal []VertexDelta
	vwUndo    []vwChange
}

// StartJournal begins recording edge mutations (ToggleEdge, ToggleArc,
// SetEdgeWeight, the AddEdge and AddArc variants) and vertex-weight
// mutations (SetVertexWeight) into internal journals readable via Journal
// and VertexJournal. Vertex additions (AddVertex) are not journaled;
// incremental observers require a fixed vertex set, which is exactly the
// Definition 1.1 condition 1 the verifier's families guarantee.
func (m *mutlog) StartJournal() {
	m.journalOn = true
	m.ClearJournal()
}

// Journal returns the edge mutations recorded since the last ClearJournal
// (or StartJournal). The slice is internal storage: read it, then
// ClearJournal.
func (m *mutlog) Journal() []EdgeDelta { return m.journal }

// VertexJournal returns the vertex-weight mutations recorded since the
// last ClearJournal (or StartJournal); internal storage, like Journal.
func (m *mutlog) VertexJournal() []VertexDelta { return m.vwJournal }

// ClearJournal drops the recorded mutations while keeping recording on.
func (m *mutlog) ClearJournal() {
	m.journal = m.journal[:0]
	m.vwJournal = m.vwJournal[:0]
}

// StopJournal stops recording and drops the journals.
func (m *mutlog) StopJournal() {
	m.journalOn = false
	m.journal = nil
	m.vwJournal = nil
}

// setVW applies a vertex-weight change, journaling it as a remove/add
// pair and logging the prior weight for Reset. Equal-weight sets are
// no-ops so journals only carry real deltas.
func (m *mutlog) setVW(v int, w int64, logUndo bool) {
	old := m.vw[v]
	if old == w {
		return
	}
	m.vw[v] = w
	if m.journalOn {
		m.vwJournal = append(m.vwJournal,
			VertexDelta{V: v, W: old, Add: false},
			VertexDelta{V: v, W: w, Add: true})
	}
	if m.undoOn && logUndo {
		m.vwUndo = append(m.vwUndo, vwChange{v: v, from: old})
	}
}

// record logs one edge mutation into the journal and undo log.
func (m *mutlog) record(u, v int, w int64, add, logUndo bool) {
	if !m.journalOn && !(m.undoOn && logUndo) {
		return
	}
	if !m.directed && u > v {
		u, v = v, u
	}
	d := EdgeDelta{U: u, V: v, W: w, Add: add}
	if m.journalOn {
		m.journal = append(m.journal, d)
	}
	if m.undoOn && logUndo {
		m.undo = append(m.undo, d)
	}
}

// regrow rebuilds the patchable snapshot with doubled slack after an
// insert found its window full. Amortized O(1) per toggle — the
// verifier's walks revisit the same bounded degree range, so rebuilds stop
// once the peak degree has been seen.
func (m *mutlog) regrow() {
	m.patchSlack *= 2
	m.patched = m.buildPatchable()
}

// buildPatchable builds a snapshot whose windows carry patchSlack spare
// slots, so in-place insertion does not overflow immediately. The edge
// list is left stale and rebuilt lazily by Edges.
func (m *mutlog) buildPatchable() *CSR {
	c := fillCSR(&CSR{directed: m.directed}, m.adj, m.patchSlack)
	c.edgesStale = true
	return c
}

// find validates the endpoints of a toggle and returns v's position in
// u's adjacency list, or -1 when the edge (or arc) is absent.
func (m *mutlog) find(u, v int) (int, error) {
	if err := m.checkVertex(u); err != nil {
		return -1, err
	}
	if err := m.checkVertex(v); err != nil {
		return -1, err
	}
	if u == v {
		return -1, fmt.Errorf("self loop at vertex %d", u)
	}
	return halfIndex(m.adj[u], v), nil
}

func (m *mutlog) checkVertex(v int) error {
	if v < 0 || v >= len(m.adj) {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, len(m.adj))
	}
	return nil
}

// halfIndex returns the position of neighbor v in the adjacency list, or -1.
func halfIndex(nbrs []Half, v int) int {
	for i, h := range nbrs {
		if h.To == v {
			return i
		}
	}
	return -1
}

// removeHalfAt deletes entry i of an adjacency list, preserving order.
func removeHalfAt(nbrs []Half, i int) []Half {
	copy(nbrs[i:], nbrs[i+1:])
	return nbrs[:len(nbrs)-1]
}

// MarkBase records the current edge set and vertex weights as the base
// state: subsequent toggles, SetEdgeWeight and SetVertexWeight mutations
// are logged so Reset can replay them in reverse. Calling MarkBase again
// moves the base to the current state.
func (m *mutlog) MarkBase() {
	m.undoOn = true
	m.undo = m.undo[:0]
	m.vwUndo = m.vwUndo[:0]
}

// reset replays the undo log through the kind's unlogged toggle.
func (m *mutlog) reset(toggle func(u, v int, w int64, logUndo bool) (bool, error)) error {
	for i := len(m.undo) - 1; i >= 0; i-- {
		d := m.undo[i]
		nowPresent, err := toggle(d.U, d.V, d.W, false)
		if err != nil {
			return err
		}
		if nowPresent == d.Add {
			return fmt.Errorf("reset out of sync at %d-%d", d.U, d.V)
		}
	}
	m.undo = m.undo[:0]
	// Vertex weights are independent of the edge set, so the two undo
	// streams replay separately; most-recent-first restores the weight a
	// vertex carried at MarkBase even after repeated changes.
	for i := len(m.vwUndo) - 1; i >= 0; i-- {
		m.setVW(m.vwUndo[i].v, m.vwUndo[i].from, false)
	}
	m.vwUndo = m.vwUndo[:0]
	return nil
}

// FreezePatchable returns a worker-private snapshot that ToggleEdge,
// ToggleArc and SetEdgeWeight keep valid by splicing windows in place, so
// steady-state delta workloads never re-freeze; while it is live, edge and
// arc lookups are O(log deg) binary searches. Windows carry slack
// capacity; an insert overflowing its window triggers a one-off rebuild
// with doubled slack. A Digraph's snapshot holds out-windows and its
// Edges() renders arcs as Edge{U: From, V: To}. Unlike Freeze snapshots it
// is not safe for concurrent use, and mutators other than the toggles and
// SetEdgeWeight drop it.
func (m *mutlog) FreezePatchable() *CSR {
	if m.patched == nil {
		if m.patchSlack == 0 {
			m.patchSlack = 4
		}
		m.patched = m.buildPatchable()
	}
	return m.patched
}

// elemHash is the element hash of the edge or arc u-v with weight w.
func (m *mutlog) elemHash(u, v int, w int64) uint64 {
	if m.directed {
		return ArcHash(u, v, w)
	}
	return EdgeHash(u, v, w)
}

// SideHashes computes the cut and both induced-side hashes in one pass.
func (m *mutlog) SideHashes(side []bool) SideHashes {
	var s SideHashes
	for v, w := range m.vw {
		s.addVertex(side[v], VertexHash(v, w))
	}
	for u, nbrs := range m.adj {
		for _, half := range nbrs {
			if m.directed || u < half.To {
				s.add(side, u, half.To, m.elemHash(u, half.To, half.Weight))
			}
		}
	}
	return s
}

// FoldJournal XORs every journaled edge and vertex-weight mutation into s
// and clears the journal: O(1) per delta, so a delta walk keeps s equal
// to SideHashes(side) without rehashing the graph.
func (m *mutlog) FoldJournal(side []bool, s *SideHashes) {
	for _, d := range m.journal {
		s.add(side, d.U, d.V, m.elemHash(d.U, d.V, d.W))
	}
	for _, d := range m.vwJournal {
		s.addVertex(side[d.V], VertexHash(d.V, d.W))
	}
	m.ClearJournal()
}
