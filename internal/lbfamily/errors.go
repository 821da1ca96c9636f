package lbfamily

import (
	"fmt"

	"congesthard/internal/comm"
)

// CancelledError reports a sweep interrupted by its context.
// Completed counts the input pairs whose outcomes were fully computed
// before the workers drained; the sweep's verdict on the remaining pairs
// is unknown. Unwrap yields the context's error, so errors.Is(err,
// context.Canceled) and context.DeadlineExceeded both work.
type CancelledError struct {
	Completed int
	Total     int
	Err       error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("sweep cancelled after %d of %d pairs: %v", e.Completed, e.Total, e.Err)
}

// Unwrap exposes the underlying context error.
func (e *CancelledError) Unwrap() error { return e.Err }

// PanicError reports a panic recovered inside a sweep worker while
// running one input pair (its Build or ApplyBit, the predicate, or a
// certified algorithm). The panic is confined to that pair: the sweep
// finishes its other pairs and reports this error in the usual
// canonical-first failure position, naming the (x, y) pair instead of
// crashing the whole process.
type PanicError struct {
	X, Y  comm.Bits
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic at (x=%s, y=%s): %v", e.X, e.Y, e.Value)
}

// BuildError reports a pair whose Build failed during a rebuild sweep.
type BuildError struct {
	X, Y comm.Bits
	Err  error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("build (%s,%s): %v", e.X, e.Y, e.Err)
}

// Unwrap exposes the family's build error.
func (e *BuildError) Unwrap() error { return e.Err }

// ApplyError reports a delta walk whose ApplyBit failed (or panicked,
// when Err is a *PanicError) while moving its instance to the pair
// (X, Y). The instance is then out of step with the walk.
type ApplyError struct {
	Player int
	X, Y   comm.Bits
	Err    error
}

func (e *ApplyError) Error() string {
	player := "x"
	if e.Player == PlayerY {
		player = "y"
	}
	return fmt.Sprintf("delta apply %s at (%s,%s): %v", player, e.X, e.Y, e.Err)
}

// Unwrap exposes the ApplyBit error or the confined panic.
func (e *ApplyError) Unwrap() error { return e.Err }
