package algorithms

import "fmt"

// This file holds the record store that the three collect programs
// (collect, collect-retry and the directed collect) embed: the records a
// vertex knows, their deduplication, the per-neighbor frame streams that
// relay them, and the end-of-budget root election.

// record is one collected edge or arc (a, b, w), keyed a*n + b: the
// canonical edge {a, b} (a < b) for the undirected programs, the oriented
// arc a -> b for the directed one.
type record struct {
	a, b int
	w    int64
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

// recordStore is the state shared by the collect programs. Frames are
// 1 + wchunks chunks of cw bits each: the key a*n + b, then the weight
// little-endian.
type recordStore struct {
	id, n   int
	full    bool // full collection (Keep == nil): roots are elected by union-find
	cw      int  // data bits per chunk: the bandwidth, less collect-retry's header
	wchunks int
	budget  int   // the round at which nodes stop and roots evaluate
	nbrs    []int // sorted ascending, as both simulators hand them out
	links   []link
	records []record
	seen    []uint64 // dedup bitset over the keys in [0, n^2)
	parent  []int    // union-find forest over vertex ids, built at the budget
	out     collectOutput
}

// newRecordStore sizes the store; capacity is the kept-record count T,
// which bounds what any vertex learns.
func newRecordStore(id, n int, nbrs []int, full bool, cw, wchunks, budget, capacity int) recordStore {
	return recordStore{
		id: id, n: n, full: full, cw: cw, wchunks: wchunks, budget: budget,
		nbrs:    nbrs,
		links:   make([]link, len(nbrs)),
		records: make([]record, 0, capacity),
		seen:    make([]uint64, (n*n+63)/64),
	}
}

// learn records (a, b, w) unless its key is already known. A key outside
// [0, n^2) cannot come from a well-formed frame; it is kept, never
// deduplicated away, so a root's reconstruction rejects it.
func (s *recordStore) learn(a, b int, w int64) {
	k := int64(a)*int64(s.n) + int64(b)
	if k >= 0 && k < int64(s.n)*int64(s.n) {
		bit := uint64(1) << uint(k&63)
		if s.seen[k>>6]&bit != 0 {
			return
		}
		s.seen[k>>6] |= bit
	}
	s.records = append(s.records, record{a: a, b: b, w: w})
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
			s.learn(int(chunk)/s.n, int(chunk)%s.n, 1)
		} else {
			l.rcvKey, l.rcvW, l.rcvChunk = chunk, 0, 1
		}
		return
	}
	l.rcvW |= chunk << uint(s.cw*(l.rcvChunk-1))
	l.rcvChunk++
	if l.rcvChunk > s.wchunks {
		s.learn(int(l.rcvKey)/s.n, int(l.rcvKey)%s.n, l.rcvW)
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
		return int64(r.a)*int64(s.n) + int64(r.b), true
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

// elect decides whether this vertex is a root. Under filtered collection
// vertex 0 is the sole root. Under full collection the records span the
// vertex's whole component, so a union-find over them names the
// component's minimum id without building a graph: unions hang the larger
// set root under the smaller, so every set is rooted at its minimum id.
// Records with an endpoint outside [0, n) are skipped; a root's
// reconstruction rejects them. Vertex 0 is always a root.
func (s *recordStore) elect() bool {
	if !s.full {
		return s.id == 0
	}
	s.parent = make([]int, s.n)
	for v := range s.parent {
		s.parent[v] = v
	}
	for _, r := range s.records {
		if uint(r.a) >= uint(s.n) || uint(r.b) >= uint(s.n) {
			continue
		}
		ra, rb := s.find(r.a), s.find(r.b)
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

// member reports whether v is in an elected root's component.
func (s *recordStore) member(v int) bool { return s.find(v) == s.id }

// settle runs at an elected root: it reconstructs the records through add
// and, if every record is accepted, evaluates. A rejected record makes
// vertex 0, the one root in both collection modes, output the error; any
// other root produces no output.
func (s *recordStore) settle(what string, add func(a, b int, w int64) error, eval func() (int64, error)) {
	for _, r := range s.records {
		if err := add(r.a, r.b, r.w); err != nil {
			if s.id == 0 {
				s.out = collectOutput{root: true, err: fmt.Errorf("reconstructing collected %s: %w", what, err)}
			}
			return
		}
	}
	s.out.root = true
	s.out.value, s.out.err = eval()
}

// Output returns the root's collectOutput (zero value elsewhere).
func (s *recordStore) Output() interface{} { return s.out }

// sumRoots sums the root values of a finished run's outputs.
func sumRoots(outputs []interface{}, program string) (int64, error) {
	var total int64
	roots := 0
	for v, out := range outputs {
		c, ok := out.(collectOutput)
		if !ok {
			return 0, fmt.Errorf("vertex %d did not run the %s program", v, program)
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
