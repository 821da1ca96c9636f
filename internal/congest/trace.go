package congest

// RoundTrace summarizes one synchronous round's message flow. The
// simulator hands one to Options.Trace after each round executes:
//
//   - Sent counts messages accepted from outboxes this round (after
//     neighbor/duplicate/bandwidth validation — the same events
//     Metrics.Messages accumulates);
//   - Delivered counts messages handed to inboxes at the start of this
//     round (sends from earlier rounds whose delivery stamp came due);
//   - Dropped counts messages the fault injector discarded this round
//     (always 0 with Options.Faults == nil — messages addressed to
//     terminated nodes are not counted here, they are never enqueued);
//   - Active counts nodes still running after the round (neither
//     terminated nor crashed).
//
// Sent and Delivered are offset by delivery latency: a message sent in
// round r is delivered in round r+1 (later under fault delay), so the
// two columns of a trace do not sum per-row, only per-run.
type RoundTrace struct {
	Round     int
	Sent      int
	Delivered int
	Dropped   int
	Active    int
}

// Tracer observes a simulation round by round. Like Meter it is an
// opt-in hook: with Options.Trace == nil the round loop pays one
// nil-check per round and nothing else. ObserveRound is called exactly
// once per executed round, in round order, from the simulator's single
// goroutine, with a stack-passed RoundTrace — an allocation-free
// implementation keeps the whole run allocation-free (guarded by
// TestRunSteadyStateDoesNotAllocate on both graph kinds). Graph and
// digraph runs take the same Tracer, so one tracer can watch a mixed
// sweep.
type Tracer interface {
	ObserveRound(t RoundTrace)
}
