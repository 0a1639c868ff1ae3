package service

import (
	"errors"
	"fmt"

	wire "gigaflow/internal/packet"
)

// The service error taxonomy. Every entry point returns one of these
// sentinels (possibly wrapped); assert with errors.Is rather than string
// comparison.
var (
	// ErrNotStarted rejects blocking work on a service that has not been
	// started: with no workers draining the queues, the call could only
	// hang. Nonblocking submissions are exempt: they queue until Start.
	ErrNotStarted = errors.New("service: not started")

	// ErrStarted rejects a second Start.
	ErrStarted = errors.New("service: already started")

	// ErrClosed rejects work on a service whose workers have exited (or
	// a second Close).
	ErrClosed = errors.New("service: closed")

	// ErrQueueFull reports a nonblocking submission dropped because the
	// target worker's queue was full — the overload behaviour of a real
	// NIC rx ring. Each drop is also counted against the worker in the
	// gigaflow_queue_full_drops_total metric.
	ErrQueueFull = errors.New("service: worker queue full")

	// ErrUpcallOverflow reports a main-cache miss dropped because the
	// asynchronous upcall queue was full and the service runs the
	// OverflowDrop policy — the upcall-ring drop of a real datapath.
	// Only cold flows are affected; cache hits never touch the queue.
	// Each drop is counted in gigaflow_upcall_overflow_drops_total.
	ErrUpcallOverflow = errors.New("service: upcall queue full")

	// ErrBadFrame reports a frame the decoder refused outright (today:
	// shorter than an Ethernet header). Concrete failures are *FrameError
	// values wrapping this sentinel, so errors.Is(err, ErrBadFrame)
	// matches any refusal and a FrameError match narrows it to one
	// wire-level code.
	ErrBadFrame = errors.New("service: bad frame")

	// ErrShortFrame reports a frame shorter than an Ethernet header. It is
	// the *FrameError for wire.ErrShortFrame; both
	// errors.Is(err, ErrShortFrame) and errors.Is(err, ErrBadFrame) match.
	ErrShortFrame error = &FrameError{Code: wire.ErrShortFrame}
)

// FrameError is a decode defect severe enough to reject a frame before
// submission, carrying the wire-level reason. It wraps ErrBadFrame, and
// two FrameErrors compare equal under errors.Is when their codes match.
type FrameError struct {
	// Code is the decoder's verdict (never wire.ErrOK).
	Code wire.ErrCode
}

// Error formats the rejection with its wire-level code.
func (e *FrameError) Error() string {
	return fmt.Sprintf("service: bad frame: %s", e.Code)
}

// Unwrap makes every FrameError match ErrBadFrame under errors.Is.
func (e *FrameError) Unwrap() error { return ErrBadFrame }

// Is matches any FrameError carrying the same code, so sentinel instances
// like ErrShortFrame compare equal to freshly constructed rejections.
func (e *FrameError) Is(target error) bool {
	t, ok := target.(*FrameError)
	return ok && t.Code == e.Code
}
