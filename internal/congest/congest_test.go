package congest

import (
	"reflect"
	"strings"
	"testing"

	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// kind is one graph kind under test: Run bound to an instance of it.
type kind struct {
	name string
	run  func(Factory, Options) (*Result, error)
}

func bind[G *graph.Graph | *graph.Digraph](g G) kind {
	name := "graph"
	if _, ok := any(g).(*graph.Digraph); ok {
		name = "digraph"
	}
	return kind{name, func(f Factory, o Options) (*Result, error) { return Run(g, f, o) }}
}

// kinds binds an undirected instance and a directed one, for the tests
// that check one behaviour on both graph kinds.
func kinds(g *graph.Graph, d *graph.Digraph) []kind { return []kind{bind(g), bind(d)} }

// dirPath returns the digraph 0 -> 1 -> ... -> n-1.
func dirPath(n int) *graph.Digraph {
	d := graph.NewDigraph(n)
	for v := 0; v+1 < n; v++ {
		d.MustAddArc(v, v+1)
	}
	return d
}

// dirCycle returns the digraph 0 -> 1 -> ... -> n-1 -> 0.
func dirCycle(n int) *graph.Digraph {
	d := dirPath(n)
	d.MustAddArc(n-1, 0)
	return d
}

func mustCycle(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// floodMinNode floods the minimum id seen so far for exactly budget rounds,
// then outputs it. It is the classic O(D)-round leader election used in the
// paper's upper-bound discussions. On a digraph it floods every link, so
// the minimum travels against arc direction too.
type floodMinNode struct {
	local  Local
	best   int64
	budget int
}

func newFloodMin(budget int) Factory {
	return func(local Local) Node {
		return &floodMinNode{local: local, best: int64(local.ID), budget: budget}
	}
}

func (f *floodMinNode) Round(round int, inbox []Incoming) ([]Message, bool) {
	for _, msg := range inbox {
		if msg.Payload < f.best {
			f.best = msg.Payload
		}
	}
	if round >= f.budget {
		return nil, true
	}
	out := make([]Message, 0, len(f.local.Neighbors))
	for _, nbr := range f.local.Neighbors {
		out = append(out, Message{To: nbr, Payload: f.best})
	}
	return out, false
}

func (f *floodMinNode) Output() interface{} { return f.best }

// sendOnce is a program in which node 0 sends msgs in round 0 and every
// node then stops.
func sendOnce(msgs ...Message) Factory {
	return func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 0 && round == 0 {
					return msgs, true
				}
				return nil, true
			},
		}
	}
}

func quiet(Local) Node {
	return &FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
}

func TestFloodMinOnPath(t *testing.T) {
	// On the digraph the arcs point away from 0, but links are full
	// duplex: every vertex must still learn the minimum id.
	for _, k := range kinds(graph.Path(8), dirPath(8)) {
		t.Run(k.name, func(t *testing.T) {
			res, err := k.run(newFloodMin(8), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for v, out := range res.Outputs {
				if out.(int64) != 0 {
					t.Errorf("vertex %d learned min %v, want 0", v, out)
				}
			}
			if res.Rounds < 7 {
				t.Errorf("rounds = %d, want >= diameter 7", res.Rounds)
			}
		})
	}
}

func TestFloodMinInsufficientBudgetOnPath(t *testing.T) {
	// With fewer rounds than the diameter, the far endpoint cannot learn 0.
	g := graph.Path(8)
	res, err := Run(g, newFloodMin(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[7].(int64) == 0 {
		t.Error("information travelled faster than one hop per round")
	}
}

func TestInformationFlowsAgainstArcs(t *testing.T) {
	// With arcs n-1 <- ... <- 0 reversed, vertex 0's id still reaches the
	// sink of the arc orientation and vice versa.
	d := graph.NewDigraph(5)
	for v := 0; v+1 < 5; v++ {
		d.MustAddArc(v+1, v) // arcs point toward 0
	}
	res, err := Run(d, newFloodMin(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[4].(int64) != 0 {
		t.Errorf("vertex 4 learned %v, want 0 (links are full duplex)", res.Outputs[4])
	}
}

func TestCutMetering(t *testing.T) {
	g := graph.Path(4)
	side := []bool{true, true, false, false} // single cut edge {1,2}
	res, err := Run(g, newFloodMin(5), Options{CutSide: side})
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 5 sending rounds crosses the cut twice (both directions).
	if res.CutMessages != 10 {
		t.Errorf("cut messages = %d, want 10", res.CutMessages)
	}
	if res.CutBits != res.CutMessages*int64(res.BandwidthBits) {
		t.Error("cut bits inconsistent with cut messages")
	}
	if res.Messages <= res.CutMessages {
		t.Error("total messages should exceed cut messages on a path")
	}
}

func TestArcCutMetering(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with Alice = {0,1}: the single cut arc (1,2) is one
	// full-duplex link; flooding for 5 rounds crosses it twice per round.
	d := dirPath(4)
	side := []bool{true, true, false, false}
	counts := &CutCounts{}
	res, err := Run(d, newFloodMin(5), Options{CutSide: side, Meter: counts})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutMessages != 10 {
		t.Errorf("cut messages = %d, want 10", res.CutMessages)
	}
	if res.CutBits != res.CutMessages*int64(res.BandwidthBits) {
		t.Error("cut bits inconsistent with cut messages")
	}
	if counts.CutMessages() != res.CutMessages || counts.CutBits() != res.CutBits {
		t.Errorf("meter (%d msgs, %d bits) disagrees with metrics (%d, %d)",
			counts.CutMessages(), counts.CutBits(), res.CutMessages, res.CutBits)
	}
	if counts.MessagesAB == 0 || counts.MessagesBA == 0 {
		t.Error("flooding must cross the cut in both directions")
	}
	if res.Messages <= res.CutMessages {
		t.Error("total messages should exceed cut messages on a path")
	}
}

func TestBandwidthEnforced(t *testing.T) {
	for _, k := range kinds(graph.Path(2), dirPath(2)) {
		t.Run(k.name, func(t *testing.T) {
			if _, err := k.run(sendOnce(Message{To: 1, Payload: 1 << 40}), Options{BandwidthBits: 8}); err == nil {
				t.Error("oversized payload accepted")
			}
		})
	}
}

func TestNegativePayloadRejected(t *testing.T) {
	for _, k := range kinds(graph.Path(2), dirPath(2)) {
		t.Run(k.name, func(t *testing.T) {
			if _, err := k.run(sendOnce(Message{To: 1, Payload: -1}), Options{}); err == nil {
				t.Error("negative payload accepted")
			}
		})
	}
}

func TestNonNeighborRejected(t *testing.T) {
	// 0-1-2 (on the digraph 0 -> 1 -> 2): no link between 0 and 2.
	for _, k := range kinds(graph.Path(3), dirPath(3)) {
		t.Run(k.name, func(t *testing.T) {
			if _, err := k.run(sendOnce(Message{To: 2, Payload: 1}), Options{}); err == nil {
				t.Error("message to non-neighbor accepted")
			}
		})
	}
}

func TestDuplicateMessageSameEdgeRejected(t *testing.T) {
	g := graph.Path(2)
	if _, err := Run(g, sendOnce(Message{To: 1, Payload: 1}, Message{To: 1, Payload: 2}), Options{}); err == nil {
		t.Error("two messages on one edge in one round accepted")
	}
}

func TestAntiparallelArcsCollapseToOneLink(t *testing.T) {
	d := graph.NewDigraph(2)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 0)
	var sawNeighbors int
	factory := func(local Local) Node {
		if local.ID == 0 {
			sawNeighbors = len(local.Neighbors)
		}
		// Two messages to the same neighbor in one round must be rejected
		// even though two (antiparallel) arcs exist.
		return sendOnce(Message{To: 1, Payload: 1}, Message{To: 1, Payload: 2})(local)
	}
	if _, err := Run(d, factory, Options{}); err == nil {
		t.Error("two messages on one link in one round accepted")
	}
	if sawNeighbors != 1 {
		t.Errorf("vertex 0 has %d link neighbors, want 1 (antiparallel pair collapses)", sawNeighbors)
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				return nil, false // never terminates
			},
		}
	}
	for _, k := range kinds(graph.Path(2), dirPath(2)) {
		t.Run(k.name, func(t *testing.T) {
			if _, err := k.run(factory, Options{MaxRounds: 10}); err == nil {
				t.Error("non-terminating program not aborted")
			}
		})
	}
}

func TestMaxRoundsErrorNamesLiveNodes(t *testing.T) {
	// Regression: the MaxRounds-exhausted error must name the still-running
	// node ids and the round count, so runaway programs are diagnosable.
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				return nil, local.ID == 0 // only node 0 ever terminates
			},
		}
	}
	for _, k := range kinds(graph.Path(4), dirPath(4)) {
		t.Run(k.name, func(t *testing.T) {
			_, err := k.run(factory, Options{MaxRounds: 7})
			if err == nil {
				t.Fatal("non-terminating program not aborted")
			}
			for _, want := range []string{"7 rounds", "3 of 4 nodes", "[1 2 3]"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

func TestMaxRoundsExactLimit(t *testing.T) {
	// MaxRounds = 10 must allow a program that uses exactly 10 rounds
	// (round indices 0..9) and abort one that needs an 11th.
	g := graph.Path(2)
	doneAt := func(last int) Factory {
		return func(local Local) Node {
			return &FuncNode{
				RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
					return nil, round >= last
				},
			}
		}
	}
	res, err := Run(g, doneAt(9), Options{MaxRounds: 10})
	if err != nil {
		t.Fatalf("program finishing within the limit aborted: %v", err)
	}
	if res.Rounds != 10 {
		t.Errorf("rounds = %d, want 10", res.Rounds)
	}
	if _, err := Run(g, doneAt(10), Options{MaxRounds: 10}); err == nil {
		t.Error("program needing 11 rounds not aborted at MaxRounds=10")
	}
}

func TestMessageToTerminatedNodeDropped(t *testing.T) {
	// Node 0 terminates in round 0; node 1 sends to it in round 1. The
	// message is metered and the round counts, but nothing is delivered.
	g := graph.Path(2)
	delivered := 0
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				delivered += len(inbox)
				if local.ID == 0 {
					return nil, true
				}
				if round == 0 {
					return nil, false
				}
				return []Message{{To: 0, Payload: 7}}, true
			},
		}
	}
	res, err := Run(g, factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("%d messages delivered to a terminated node", delivered)
	}
	if res.Messages != 1 {
		t.Errorf("messages = %d, want 1 (metered even though dropped)", res.Messages)
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (the sending round counts)", res.Rounds)
	}
}

func TestBandwidthRangeRejected(t *testing.T) {
	for _, k := range kinds(graph.Path(2), dirPath(2)) {
		t.Run(k.name, func(t *testing.T) {
			for _, bad := range []int{-1, 63, 100} {
				if _, err := k.run(quiet, Options{BandwidthBits: bad}); err == nil {
					t.Errorf("bandwidth %d accepted, want rejection outside [1,62]", bad)
				}
			}
			for _, ok := range []int{1, 62} {
				if _, err := k.run(quiet, Options{BandwidthBits: ok}); err != nil {
					t.Errorf("bandwidth %d rejected: %v", ok, err)
				}
			}
		})
	}
}

func TestCutBitMeteringSymmetry(t *testing.T) {
	// Asymmetric cut traffic: only node 1 (Alice side) sends across the
	// cut. CutBits must equal CutMessages * BandwidthBits exactly.
	g := graph.Path(4)
	side := []bool{true, true, false, false}
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 1 && round < 3 {
					return []Message{{To: 2, Payload: int64(round)}}, round == 2
				}
				return nil, round >= 2
			},
		}
	}
	res, err := Run(g, factory, Options{CutSide: side})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutMessages != 3 {
		t.Errorf("cut messages = %d, want 3", res.CutMessages)
	}
	if res.CutBits != res.CutMessages*int64(res.BandwidthBits) {
		t.Errorf("CutBits = %d, want CutMessages (%d) * BandwidthBits (%d)",
			res.CutBits, res.CutMessages, res.BandwidthBits)
	}
}

// chatterNode floods a fixed payload every round without allocating in
// steady state: its outbox is built once and reused.
type chatterNode struct {
	outbox []Message
	budget int
}

func newChatter(budget int) Factory {
	return func(local Local) Node {
		out := make([]Message, len(local.Neighbors))
		for i, nbr := range local.Neighbors {
			out[i] = Message{To: nbr, Payload: int64(local.ID)}
		}
		return &chatterNode{outbox: out, budget: budget}
	}
}

func (c *chatterNode) Round(round int, inbox []Incoming) ([]Message, bool) {
	if round >= c.budget {
		return nil, true
	}
	return c.outbox, false
}

func (c *chatterNode) Output() interface{} { return nil }

func TestRunSteadyStateDoesNotAllocate(t *testing.T) {
	// Compare the allocation counts of a short and a long simulation on
	// the same instance: the extra rounds must not allocate at all.
	side := make([]bool, 16)
	for v := range side {
		side[v] = v%2 == 0
	}
	for _, k := range kinds(mustCycle(t, 16), dirCycle(16)) {
		t.Run(k.name, func(t *testing.T) {
			for _, mode := range []struct {
				name string
				opts Options
			}{
				{"plain", Options{}},
				// With the cut meter enabled the hook passes scalars to a
				// preallocated counting meter.
				{"metered", Options{CutSide: side, Meter: &CutCounts{}}},
				// The injector and its delivery ring are allocated at
				// setup, and every per-message decision is arithmetic.
				{"faults-on", Options{Faults: &faults.Plan{Seed: 3, DropProb: 0.05, MaxDelay: 2}}},
				// The callback receives a stack-passed RoundTrace and this
				// tracer only adds integers.
				{"traced", Options{Trace: &countingTracer{}}},
			} {
				runWith := func(rounds int) func() {
					return func() {
						if _, err := k.run(newChatter(rounds), mode.opts); err != nil {
							t.Fatal(err)
						}
					}
				}
				short := testing.AllocsPerRun(5, runWith(10))
				long := testing.AllocsPerRun(5, runWith(1010))
				if long > short {
					t.Errorf("%s per-round allocations detected: %v allocs for 10 rounds, %v for 1010", mode.name, short, long)
				}
			}
		})
	}
}

// countingTracer accumulates RoundTrace fields without allocating, so
// traced steady-state assertions measure the simulator, not the tracer.
type countingTracer struct {
	rounds, sent, delivered, dropped, lastActive, lastRound int
}

func (c *countingTracer) ObserveRound(t RoundTrace) {
	c.rounds++
	c.sent += t.Sent
	c.delivered += t.Delivered
	c.dropped += t.Dropped
	c.lastActive = t.Active
	c.lastRound = t.Round
}

func TestTraceObservesEveryRound(t *testing.T) {
	for _, k := range kinds(mustCycle(t, 16), dirCycle(16)) {
		t.Run(k.name, func(t *testing.T) {
			tr := &countingTracer{}
			res, err := k.run(newChatter(8), Options{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if tr.rounds != res.Rounds || tr.lastRound != res.Rounds-1 {
				t.Errorf("tracer saw %d rounds (last %d), metrics say %d", tr.rounds, tr.lastRound, res.Rounds)
			}
			if int64(tr.sent) != res.Messages {
				t.Errorf("traced sent %d != metered messages %d", tr.sent, res.Messages)
			}
			// Every chatter message is delivered: sends stop a round before
			// the nodes terminate, so nothing is ever addressed to a
			// finished node.
			if tr.delivered != tr.sent {
				t.Errorf("traced delivered %d != sent %d on a fault-free run", tr.delivered, tr.sent)
			}
			if tr.dropped != 0 {
				t.Errorf("traced %d drops on a fault-free run", tr.dropped)
			}
			if tr.lastActive != 0 {
				t.Errorf("last round reports %d active nodes, want 0", tr.lastActive)
			}
		})
	}
}

func TestTraceCountsInjectorDrops(t *testing.T) {
	// Drop-only plan (no delay): every sent message is either delivered
	// next round or counted dropped, so the trace totals must balance.
	tr := &countingTracer{}
	plan := &faults.Plan{Seed: 11, DropProb: 0.3}
	if _, err := Run(mustCycle(t, 16), newChatter(8), Options{Trace: tr, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	if tr.dropped == 0 {
		t.Fatal("30% drop plan traced zero drops")
	}
	if tr.delivered != tr.sent-tr.dropped {
		t.Errorf("delivered %d != sent %d - dropped %d", tr.delivered, tr.sent, tr.dropped)
	}
}

func TestMeterRequiresBipartition(t *testing.T) {
	// Regression: a Meter without a bipartition (or with an undersized
	// one) must be rejected with a descriptive error, not silently run
	// unclassified.
	for _, k := range kinds(graph.Path(4), dirPath(4)) {
		t.Run(k.name, func(t *testing.T) {
			if _, err := k.run(quiet, Options{Meter: &CutCounts{}}); err == nil {
				t.Error("Meter with nil CutSide accepted")
			}
			if _, err := k.run(quiet, Options{Meter: &CutCounts{}, CutSide: []bool{true, false}}); err == nil {
				t.Error("Meter with undersized CutSide accepted")
			}
			if _, err := k.run(quiet, Options{CutSide: make([]bool, 7)}); err == nil {
				t.Error("oversized CutSide accepted")
			}
			if _, err := k.run(quiet, Options{Meter: &CutCounts{}, CutSide: make([]bool, 4)}); err != nil {
				t.Errorf("well-formed metered run rejected: %v", err)
			}
		})
	}
}

// dirRecord captures every observation for classification tests.
type dirRecord struct {
	round, from, to int
	payload         int64
	dir             Direction
}

type recordingMeter struct{ seen []dirRecord }

func (r *recordingMeter) Observe(round, from, to int, payload int64, bits int, dir Direction) {
	r.seen = append(r.seen, dirRecord{round, from, to, payload, dir})
}

func TestMeterClassifiesDirections(t *testing.T) {
	// Path 0-1-2-3 with Alice = {0,1}: messages 1->2 are A->B, 2->1 are
	// B->A, and 0<->1 / 2<->3 are internal. One flooding round from every
	// vertex exercises all three classes. The digraph has arcs 0 -> 1,
	// 2 -> 1 and 2 -> 3, so message 1->2 travels against its arc and is
	// still A->B.
	d := graph.NewDigraph(4)
	d.MustAddArc(0, 1)
	d.MustAddArc(2, 1)
	d.MustAddArc(2, 3)
	side := []bool{true, true, false, false}
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if round > 0 {
					return nil, true
				}
				out := make([]Message, 0, len(local.Neighbors))
				for _, nbr := range local.Neighbors {
					out = append(out, Message{To: nbr, Payload: int64(local.ID)})
				}
				return out, false
			},
		}
	}
	want := map[[2]int]Direction{
		{0, 1}: DirInternal, {1, 0}: DirInternal,
		{1, 2}: DirAliceToBob, {2, 1}: DirBobToAlice,
		{2, 3}: DirInternal, {3, 2}: DirInternal,
	}
	for _, k := range kinds(graph.Path(4), d) {
		t.Run(k.name, func(t *testing.T) {
			rec := &recordingMeter{}
			res, err := k.run(factory, Options{CutSide: side, Meter: rec})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.seen) != len(want) {
				t.Fatalf("observed %d messages, want %d", len(rec.seen), len(want))
			}
			var crossing int64
			for _, obs := range rec.seen {
				if d, ok := want[[2]int{obs.from, obs.to}]; !ok || d != obs.dir {
					t.Errorf("message %d->%d classified %v, want %v", obs.from, obs.to, obs.dir, d)
				}
				if obs.payload != int64(obs.from) {
					t.Errorf("message %d->%d observed payload %d", obs.from, obs.to, obs.payload)
				}
				if obs.dir != DirInternal {
					crossing++
				}
			}
			if crossing != res.CutMessages {
				t.Errorf("meter saw %d crossing messages, metrics say %d", crossing, res.CutMessages)
			}
		})
	}
}

// TestMeterEmptyCut: a bipartition with zero crossing links (all vertices
// on one side) is valid — the meter observes only internal messages and
// the cut totals stay zero.
func TestMeterEmptyCut(t *testing.T) {
	allTrue := make([]bool, 6)
	for i := range allTrue {
		allTrue[i] = true
	}
	for _, k := range kinds(mustCycle(t, 6), dirCycle(6)) {
		t.Run(k.name, func(t *testing.T) {
			for _, side := range [][]bool{make([]bool, 6), allTrue} {
				counts := &CutCounts{}
				res, err := k.run(newFloodMin(4), Options{CutSide: side, Meter: counts})
				if err != nil {
					t.Fatal(err)
				}
				if res.CutMessages != 0 || res.CutBits != 0 {
					t.Errorf("empty cut metered traffic: %d msgs, %d bits", res.CutMessages, res.CutBits)
				}
				if counts.CutMessages() != 0 || counts.CutBits() != 0 {
					t.Errorf("meter counted crossing traffic on an empty cut: %+v", counts)
				}
				if counts.Internal != res.Messages {
					t.Errorf("meter internal %d != total messages %d", counts.Internal, res.Messages)
				}
			}
		})
	}
}

// TestMeterSingleVertexSides: bipartitions with a single vertex on either
// side; the cut links are exactly that vertex's links.
func TestMeterSingleVertexSides(t *testing.T) {
	for _, k := range kinds(mustCycle(t, 6), dirCycle(6)) {
		t.Run(k.name, func(t *testing.T) {
			for _, alice := range []int{0, 3} {
				for _, invert := range []bool{false, true} {
					side := make([]bool, 6)
					for v := range side {
						side[v] = (v == alice) != invert
					}
					counts := &CutCounts{}
					res, err := k.run(newFloodMin(4), Options{CutSide: side, Meter: counts})
					if err != nil {
						t.Fatal(err)
					}
					// The single vertex has 2 links on the cycle; 4 sending
					// rounds cross each twice per round.
					if res.CutMessages != 16 {
						t.Errorf("alice=%d invert=%v: cut messages = %d, want 16", alice, invert, res.CutMessages)
					}
					if counts.MessagesAB != 8 || counts.MessagesBA != 8 {
						t.Errorf("alice=%d invert=%v: meter split %d/%d, want 8/8",
							alice, invert, counts.MessagesAB, counts.MessagesBA)
					}
				}
			}
		})
	}
}

func TestMeterCountsMatchMetrics(t *testing.T) {
	g := graph.Complete(6)
	side := []bool{true, true, true, false, false, false}
	counts := &CutCounts{}
	res, err := Run(g, newFloodMin(4), Options{CutSide: side, Meter: counts})
	if err != nil {
		t.Fatal(err)
	}
	if counts.CutMessages() != res.CutMessages {
		t.Errorf("meter cut messages %d != metrics %d", counts.CutMessages(), res.CutMessages)
	}
	if counts.CutBits() != res.CutBits {
		t.Errorf("meter cut bits %d != metrics %d", counts.CutBits(), res.CutBits)
	}
	if counts.Internal+counts.CutMessages() != res.Messages {
		t.Errorf("meter total %d != metrics messages %d", counts.Internal+counts.CutMessages(), res.Messages)
	}
	if counts.MessagesAB == 0 || counts.MessagesBA == 0 {
		t.Error("flooding on a complete graph must cross the cut both ways")
	}
}

// localOf runs a quiet program on g and returns vertex v's wakeup view.
func localOf[G *graph.Graph | *graph.Digraph](t *testing.T, g G, v int) Local {
	t.Helper()
	var got Local
	factory := func(local Local) Node {
		if local.ID == v {
			got = local
		}
		return quiet(local)
	}
	if _, err := Run(g, factory, Options{}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLocalInfo(t *testing.T) {
	g := graph.New(3)
	g.MustAddWeightedEdge(0, 1, 5)
	g.MustAddWeightedEdge(1, 2, 7)
	if err := g.SetVertexWeight(1, 9); err != nil {
		t.Fatal(err)
	}
	got := localOf(t, g, 1)
	if got.N != 3 || got.VertexWeight != 9 {
		t.Errorf("local info wrong: %+v", got)
	}
	if len(got.Neighbors) != 2 || len(got.EdgeWeights) != 2 {
		t.Fatalf("neighbor info wrong: %+v", got)
	}
	for i, nbr := range got.Neighbors {
		w := got.EdgeWeights[i]
		if (nbr == 0 && w != 5) || (nbr == 2 && w != 7) {
			t.Errorf("edge weight misaligned: nbr %d weight %d", nbr, w)
		}
	}
	if got.OutNeighbors != nil || got.OutWeights != nil || got.InNeighbors != nil || got.InWeights != nil {
		t.Errorf("undirected run filled the directed fields: %+v", got)
	}
}

func TestLocalDirectedInfo(t *testing.T) {
	// Vertex 1's in-arcs are added in descending tail order, and 1 <-> 3
	// is an antiparallel pair whose two arcs carry different weights.
	d := graph.NewDigraph(5)
	d.MustAddWeightedArc(1, 0, 5)
	d.MustAddWeightedArc(1, 3, 7)
	d.MustAddWeightedArc(4, 1, 15)
	d.MustAddWeightedArc(3, 1, 13)
	d.MustAddWeightedArc(2, 1, 9)
	if err := d.SetVertexWeight(1, 11); err != nil {
		t.Fatal(err)
	}
	got := localOf(t, d, 1)
	if got.N != 5 || got.VertexWeight != 11 {
		t.Errorf("local info wrong: %+v", got)
	}
	if !reflect.DeepEqual(got.OutNeighbors, []int{0, 3}) || !reflect.DeepEqual(got.OutWeights, []int64{5, 7}) {
		t.Errorf("out-arcs wrong: %v %v", got.OutNeighbors, got.OutWeights)
	}
	if !reflect.DeepEqual(got.InNeighbors, []int{2, 3, 4}) || !reflect.DeepEqual(got.InWeights, []int64{9, 13, 15}) {
		t.Errorf("in-arcs wrong: %v %v", got.InNeighbors, got.InWeights)
	}
	if !reflect.DeepEqual(got.Neighbors, []int{0, 2, 3, 4}) {
		t.Errorf("link neighbors %v, want [0 2 3 4]", got.Neighbors)
	}
	if got.EdgeWeights != nil {
		t.Errorf("directed run filled EdgeWeights: %v", got.EdgeWeights)
	}
}

func TestInboxSortedByFrom(t *testing.T) {
	// Every leaf of a star sends to the center 0 in round 0; the center
	// must receive them in ascending sender order. On the digraph the
	// arcs alternate toward and away from the center.
	d := graph.NewDigraph(5)
	d.MustAddArc(1, 0)
	d.MustAddArc(0, 2)
	d.MustAddArc(3, 0)
	d.MustAddArc(0, 4)
	for _, k := range kinds(graph.Star(4), d) {
		t.Run(k.name, func(t *testing.T) {
			var inboxFroms, want []int
			factory := func(local Local) Node {
				if local.ID != 0 {
					want = append(want, local.ID)
				}
				return &FuncNode{
					RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
						if local.ID == 0 && round == 1 {
							for _, m := range inbox {
								inboxFroms = append(inboxFroms, m.From)
							}
							return nil, true
						}
						if local.ID != 0 && round == 0 {
							return []Message{{To: 0, Payload: int64(local.ID)}}, false
						}
						return nil, round >= 1
					},
				}
			}
			if _, err := k.run(factory, Options{}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inboxFroms, want) {
				t.Errorf("inbox order %v, want %v", inboxFroms, want)
			}
		})
	}
}

func TestDefaultBandwidthGrowsLogarithmically(t *testing.T) {
	if b := DefaultBandwidth(1); b < 2 {
		t.Errorf("DefaultBandwidth(1) = %d", b)
	}
	if b := DefaultBandwidth(1000); b != 20 {
		t.Errorf("DefaultBandwidth(1000) = %d, want 20", b)
	}
	if DefaultBandwidth(1<<20) >= 62 {
		t.Error("bandwidth too large for payload encoding")
	}
}

func TestEmptyGraph(t *testing.T) {
	for _, k := range kinds(graph.New(0), graph.NewDigraph(0)) {
		t.Run(k.name, func(t *testing.T) {
			res, err := k.run(newFloodMin(1), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != 0 {
				t.Errorf("empty instance ran %d rounds", res.Rounds)
			}
		})
	}
}

func TestDeltaWalkKeepsRoutingCurrent(t *testing.T) {
	// The certify engine toggles arcs between runs on one mutable digraph;
	// each Run must route over the current arc set (the patchable snapshot
	// is spliced in place by ToggleArc).
	d := dirPath(3)
	if _, err := d.ToggleArc(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, newFloodMin(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[2].(int64) != 0 {
		t.Error("vertex 2 did not hear vertex 0 over the toggled-in arc")
	}
	if _, err := d.ToggleArc(0, 2, 1); err != nil { // remove it again
		t.Fatal(err)
	}
	if _, err := Run(d, sendOnce(Message{To: 2, Payload: 1}), Options{}); err == nil {
		t.Error("message over the toggled-out arc accepted")
	}
}

// --- Graph and digraph agree -------------------------------------------------

// digestNode folds every delivery (round, sender, payload) into a running
// hash and sends bits of it to every neighbor for budget rounds, so any
// difference in delivery order, timing or content shows in its output.
type digestNode struct {
	nbrs   []int
	h      uint64
	budget int
	out    []Message
}

func (d *digestNode) Round(round int, inbox []Incoming) ([]Message, bool) {
	for _, m := range inbox {
		d.h = (d.h ^ uint64(round)<<40 ^ uint64(m.From)<<20 ^ uint64(m.Payload)) * 0x100000001b3
	}
	if round >= d.budget {
		return nil, true
	}
	d.out = d.out[:0]
	for i, nbr := range d.nbrs {
		d.out = append(d.out, Message{To: nbr, Payload: int64(d.h>>uint(i%16)) & 0xff})
	}
	return d.out, false
}

func (d *digestNode) Output() interface{} { return d.h }

// traceLog keeps every RoundTrace.
type traceLog struct{ rounds []RoundTrace }

func (l *traceLog) ObserveRound(t RoundTrace) { l.rounds = append(l.rounds, t) }

// TestSymmetricDigraphMatchesGraph checks the premise of one core for
// both graph kinds: a digraph holding both arcs of every edge has exactly
// the graph's links, so the two runs must agree on Metrics, Outputs, the
// meter transcript and the round trace, with and without faults.
func TestSymmetricDigraphMatchesGraph(t *testing.T) {
	const n = 14
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for _, step := range []int{1, 3} {
			g.MustAddWeightedEdge(v, (v+step)%n, int64(v%4+1))
		}
	}
	g.MustAddEdge(0, 7)
	d := graph.NewDigraph(n)
	for _, e := range g.Edges() {
		d.MustAddWeightedArc(e.U, e.V, e.Weight)
		d.MustAddWeightedArc(e.V, e.U, e.Weight)
	}
	side := make([]bool, n)
	for v := 0; v < n/2; v++ {
		side[v] = true
	}
	factory := func(local Local) Node {
		return &digestNode{nbrs: local.Neighbors, h: uint64(local.ID), budget: 12}
	}
	type outcome struct {
		res   *Result
		meter []dirRecord
		trace []RoundTrace
	}
	run := func(k kind, plan *faults.Plan) outcome {
		t.Helper()
		rec, tr := &recordingMeter{}, &traceLog{}
		res, err := k.run(factory, Options{CutSide: side, Meter: rec, Trace: tr, Faults: plan})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		return outcome{res, rec.seen, tr.rounds}
	}
	for _, plan := range []*faults.Plan{nil, {
		Seed: 9, DropProb: 0.1, MaxDelay: 2,
		Crashes:      []faults.Crash{{Node: 5, Round: 4}},
		LinkFailures: []faults.LinkFailure{{U: 1, V: 2, Round: 3}},
	}} {
		ug, dg := run(bind(g), plan), run(bind(d), plan)
		if ug.res.Metrics != dg.res.Metrics {
			t.Errorf("faults=%v: metrics differ: graph %+v, digraph %+v", plan != nil, ug.res.Metrics, dg.res.Metrics)
		}
		if !reflect.DeepEqual(ug.res.Outputs, dg.res.Outputs) {
			t.Errorf("faults=%v: outputs differ: graph %v, digraph %v", plan != nil, ug.res.Outputs, dg.res.Outputs)
		}
		if !reflect.DeepEqual(ug.meter, dg.meter) {
			t.Errorf("faults=%v: meter transcripts differ (%d vs %d observations)", plan != nil, len(ug.meter), len(dg.meter))
		}
		if !reflect.DeepEqual(ug.trace, dg.trace) {
			t.Errorf("faults=%v: round traces differ: graph %v, digraph %v", plan != nil, ug.trace, dg.trace)
		}
		if ug.res.CutMessages == 0 {
			t.Errorf("faults=%v: no traffic crossed the cut; the comparison is vacuous", plan != nil)
		}
	}
}

// --- Fault injection behavior -----------------------------------------------

func TestFaultsSeededReplayDeterministic(t *testing.T) {
	g := graph.New(16)
	for v := 0; v < 16; v++ {
		for _, step := range []int{1, 2, 5} {
			g.MustAddEdge(v, (v+step)%16)
		}
	}
	for _, tc := range []struct {
		k      kind
		plan   *faults.Plan
		budget int
	}{
		{bind(g), &faults.Plan{Seed: 21, DropProb: 0.2, MaxDelay: 3}, 40},
		{bind(dirCycle(12)), &faults.Plan{Seed: 17, DropProb: 0.2, MaxDelay: 2}, 30},
	} {
		t.Run(tc.k.name, func(t *testing.T) {
			run := func() *Result {
				res, err := tc.k.run(newFloodMin(tc.budget), Options{Faults: tc.plan})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Rounds != b.Rounds || a.Messages != b.Messages {
				t.Fatalf("replay diverged: %d rounds/%d msgs vs %d rounds/%d msgs",
					a.Rounds, a.Messages, b.Rounds, b.Messages)
			}
			for v := range a.Outputs {
				if a.Outputs[v] != b.Outputs[v] {
					t.Errorf("vertex %d: replay diverged: %v vs %v", v, a.Outputs[v], b.Outputs[v])
				}
			}
		})
	}
}

func TestFaultsCrashStopSilencesNode(t *testing.T) {
	// On a path 0-1-2-3 (on the digraph 0 -> 1 -> 2 -> 3), crashing node 1
	// at round 0 disconnects node 0 from the rest: nodes 2 and 3 can never
	// learn the minimum id 0.
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 1, Round: 0}}}
	for _, k := range kinds(graph.Path(4), dirPath(4)) {
		t.Run(k.name, func(t *testing.T) {
			res, err := k.run(newFloodMin(10), Options{Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outputs[1] != nil {
				t.Errorf("crashed node produced output %v", res.Outputs[1])
			}
			for _, v := range []int{2, 3} {
				if got := res.Outputs[v].(int64); got != 2 {
					t.Errorf("vertex %d learned %d; crash of node 1 should cut it off from 0", v, got)
				}
			}
			if res.Outputs[0].(int64) != 0 {
				t.Errorf("vertex 0 forgot its own id: %v", res.Outputs[0])
			}
		})
	}
}

func TestFaultsLinkFailureBlocksPropagation(t *testing.T) {
	// Failing the middle link of a path from round 0 splits the flood. A
	// link failure is keyed on the unordered pair, so on the digraph it
	// silences the full-duplex link in both directions.
	plan := &faults.Plan{LinkFailures: []faults.LinkFailure{{U: 1, V: 2, Round: 0}}}
	for _, k := range kinds(graph.Path(4), dirPath(4)) {
		t.Run(k.name, func(t *testing.T) {
			res, err := k.run(newFloodMin(10), Options{Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			for v, want := range map[int]int64{0: 0, 1: 0, 2: 2, 3: 2} {
				if got := res.Outputs[v].(int64); got != want {
					t.Errorf("vertex %d learned %d, want %d after 1-2 link failure", v, got, want)
				}
			}
		})
	}
}

func TestFaultsDelayOnlyStillConverges(t *testing.T) {
	// Bounded delay without drops only stretches convergence: with a budget
	// of (MaxDelay+1) * diameter rounds every node still learns the minimum.
	g := graph.Path(6)
	plan := &faults.Plan{Seed: 4, MaxDelay: 2}
	res, err := Run(g, newFloodMin(3*5+5), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(int64) != 0 {
			t.Errorf("vertex %d learned %v under delay-only faults, want 0", v, out)
		}
	}
}

func TestFaultsDropBudgetStarvesFirstMessages(t *testing.T) {
	// A large per-link adversarial budget silences a short flood entirely.
	g := graph.Path(2)
	plan := &faults.Plan{DropBudget: 100}
	res, err := Run(g, newFloodMin(5), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1].(int64) != 1 {
		t.Errorf("vertex 1 learned %v despite every message being dropped", res.Outputs[1])
	}
	// Dropped messages are still metered: the sender paid for them.
	if res.Messages == 0 {
		t.Error("dropped messages were not counted in metrics")
	}
}
