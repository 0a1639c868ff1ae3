package telemetry

// Tracer records nothing. It stays only for bench/replay.go's
// NewTracer(0, 256) call, which ROADMAP item 15 deletes together with it.
type Tracer struct{}

// NewTracer returns a Tracer, which records nothing; both arguments are
// ignored. See Tracer.
func NewTracer(sampleEvery, buffer int) *Tracer { return &Tracer{} }
