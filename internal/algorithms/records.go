package algorithms

import (
	"congesthard/internal/congest"
)

// This file holds the record store that the collect program (on either
// graph kind) and collect-retry embed: the records a vertex knows, their
// deduplication, the per-neighbor frame streams that relay them, the
// plain program's gossip round, and the end-of-budget root election. A
// store lives in node state that the factory reuses from the arena's
// per-vertex slot, so reset sizes it in place and every slice keeps its
// capacity from one run to the next.

// record is one collected edge or arc (a, b, w), stored as its key
// a*n + b (the frame's id chunk): the canonical edge {a, b} (a < b) on a
// graph, the oriented arc a -> b on a digraph. Gossip moves keys as they
// are; only election and reconstruction decode the endpoints.
type record struct {
	key, w int64
}

// link is one neighbor's stream state: the send cursor (which record, and
// which chunk of its frame) and the receive reassembly registers (pending
// key and accumulated weight chunks; rcvChunk == 0 means no frame in
// flight).
type link struct {
	sendRec, sendChunk, rcvChunk int
	rcvKey, rcvW                 int64
}

// collectOutput is a root's Output value (zero value at non-roots).
type collectOutput struct {
	root  bool
	value int64
	err   error
}

// nonRoot is the Output of every vertex that is not a root: one boxed
// zero collectOutput, shared read-only, so non-roots allocate no output.
var nonRoot interface{} = collectOutput{}

// recordStore is the state shared by the collect programs. Frames are
// 1 + wchunks chunks of cw bits each: the key a*n + b, then the weight
// little-endian. All slices are reused across runs.
type recordStore struct {
	id, n   int
	full    bool // full collection (Keep == nil): roots are elected by union-find
	cw      int  // data bits per chunk: the bandwidth, less collect-retry's header
	wchunks int
	budget  int               // the round at which nodes stop and roots evaluate
	nbrs    []int             // the run's Local.Neighbors: sorted ascending, read-only
	links   []link            // per neighbor, index-aligned with nbrs
	outbox  []congest.Message // the round's messages, handed to the simulator
	records []record          // every record known, in the order learned
	seen    []uint64          // dedup bitset over the keys in [0, n^2)
	parent  []int             // union-find forest over vertex ids, built at the budget
	index   []int             // at a root: original id -> component id, -1 outside
	out     collectOutput
}

// resized returns s with length n and every element zero, reusing its
// storage when the capacity allows.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset sizes the store for one run; capacity is the kept-record count
// T, which bounds what any vertex learns.
func (s *recordStore) reset(id, n int, nbrs []int, full bool, cw, wchunks, budget, capacity int) {
	s.id, s.n, s.full, s.cw, s.wchunks, s.budget = id, n, full, cw, wchunks, budget
	s.nbrs = nbrs
	s.links = resized(s.links, len(nbrs))
	s.outbox = s.outbox[:0]
	if cap(s.records) < capacity {
		s.records = make([]record, 0, capacity)
	}
	s.records = s.records[:0]
	s.seen = resized(s.seen, (n*n+63)/64)
	s.out = collectOutput{}
}

// learn records the edge or arc (a, b, w); see learnKey.
func (s *recordStore) learn(a, b int, w int64) {
	s.learnKey(int64(a)*int64(s.n)+int64(b), w)
}

// learnKey records (key, w) unless the key is already known. A key
// outside [0, n^2) cannot come from a well-formed frame; it is kept, never
// deduplicated away, so a root's reconstruction rejects it.
func (s *recordStore) learnKey(k, w int64) {
	if uint64(k) < uint64(s.n)*uint64(s.n) {
		bit := uint64(1) << uint(k&63)
		if s.seen[k>>6]&bit != 0 {
			return
		}
		s.seen[k>>6] |= bit
	}
	s.records = append(s.records, record{key: k, w: w})
}

// ends decodes a record's endpoints. A malformed key decodes to an
// out-of-range endpoint, which reconstruction rejects.
func (s *recordStore) ends(r record) (a, b int) {
	return int(r.key / int64(s.n)), int(r.key % int64(s.n))
}

// rank advances the merge cursor j over the sorted neighbor list to from.
// Inboxes arrive in ascending sender order, so one cursor serves a whole
// inbox; ok is false for a sender that is not a neighbor.
func (s *recordStore) rank(from, j int) (int, bool) {
	for j < len(s.nbrs) && s.nbrs[j] < from {
		j++
	}
	return j, j < len(s.nbrs) && s.nbrs[j] == from
}

// ingest feeds one chunk of neighbor i's frame stream into reassembly and
// learns the record when its frame completes.
func (s *recordStore) ingest(i int, chunk int64) {
	l := &s.links[i]
	if l.rcvChunk == 0 {
		if s.wchunks == 0 {
			s.learnKey(chunk, 1)
		} else {
			l.rcvKey, l.rcvW, l.rcvChunk = chunk, 0, 1
		}
		return
	}
	l.rcvW |= chunk << uint(s.cw*(l.rcvChunk-1))
	l.rcvChunk++
	if l.rcvChunk > s.wchunks {
		s.learnKey(l.rcvKey, l.rcvW)
		l.rcvChunk = 0
	}
}

// chunk returns the chunk under neighbor i's send cursor; ok is false once
// the stream has sent every record known so far.
func (s *recordStore) chunk(i int) (int64, bool) {
	l := &s.links[i]
	if l.sendRec >= len(s.records) {
		return 0, false
	}
	r := s.records[l.sendRec]
	if l.sendChunk == 0 {
		return r.key, true
	}
	return r.w >> uint(s.cw*(l.sendChunk-1)) & (int64(1)<<uint(s.cw) - 1), true
}

// advance moves neighbor i's send cursor past the current chunk.
func (s *recordStore) advance(i int) {
	l := &s.links[i]
	l.sendChunk++
	if l.sendChunk > s.wchunks {
		l.sendChunk = 0
		l.sendRec++
	}
}

// gossip is one round of the plain collect program: it ingests the
// per-neighbor frame streams and, before the budget, queues the next
// chunk of each neighbor's stream in outbox. At the budget it sends
// nothing and reports atBudget; the caller then finishes.
func (s *recordStore) gossip(round int, inbox []congest.Incoming) (atBudget bool) {
	i := 0
	for _, msg := range inbox {
		var ok bool
		if i, ok = s.rank(msg.From, i); ok {
			s.ingest(i, msg.Payload)
		}
	}
	if round >= s.budget {
		return true
	}
	s.outbox = s.outbox[:0]
	for i, nbr := range s.nbrs {
		if chunk, ok := s.chunk(i); ok {
			s.outbox = append(s.outbox, congest.Message{To: nbr, Payload: chunk})
			s.advance(i)
		}
	}
	return false
}

// elect decides whether this vertex is a root. Under filtered collection
// vertex 0 is the sole root. Under full collection the records span the
// vertex's whole component, so a union-find over them names the
// component's minimum id without building a graph: unions hang the larger
// set root under the smaller, so every set is rooted at its minimum id.
// Records with an endpoint outside [0, n) are skipped; a root's
// reconstruction rejects them. Vertex 0 is always a root.
//
// Fast path: under full collection a vertex learns the record of every
// link at wakeup, so one with a smaller link neighbor shares a set with
// it and is never a root; only the others run the union-find, whose
// verdict the fast path reproduces exactly.
func (s *recordStore) elect() bool {
	if !s.full {
		return s.id == 0
	}
	if len(s.nbrs) > 0 && s.nbrs[0] < s.id {
		return false
	}
	s.parent = resized(s.parent, s.n)
	for v := range s.parent {
		s.parent[v] = v
	}
	for _, r := range s.records {
		a, b := s.ends(r)
		if uint(a) >= uint(s.n) || uint(b) >= uint(s.n) {
			continue
		}
		ra, rb := s.find(a), s.find(b)
		if ra < rb {
			s.parent[rb] = ra
		} else {
			s.parent[ra] = rb
		}
	}
	return s.find(s.id) == s.id
}

func (s *recordStore) find(v int) int {
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]]
		v = s.parent[v]
	}
	return v
}

// reindex runs at an elected root under full collection: it numbers the
// root's component in ascending id order into index (-1 outside) and
// returns the component's size.
func (s *recordStore) reindex() int {
	s.index = resized(s.index, s.n)
	k := 0
	for v := range s.index {
		s.index[v] = -1
		if s.find(v) == s.id {
			s.index[v] = k
			k++
		}
	}
	return k
}

// Output returns a root's collectOutput (a copy: the store is reused by
// the next run), and the shared zero value elsewhere.
func (s *recordStore) Output() interface{} {
	if !s.out.root {
		return nonRoot
	}
	return s.out
}
