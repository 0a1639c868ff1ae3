package service

import "errors"

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

	// ErrShortFrame reports a frame shorter than an Ethernet header, the
	// one decode defect that refuses a frame before submission. Each
	// refusal is counted in gigaflow_frame_decode_errors_total.
	ErrShortFrame = errors.New("service: short frame")
)
