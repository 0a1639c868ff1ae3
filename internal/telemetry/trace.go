package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one step of a packet's traversal trace: a cache-tier lookup, a
// per-LTM-table match, the slowpath pipeline walk, or rule installation.
type Stage struct {
	// Name identifies the stage: "conntrack" (tracking, and a tracked
	// packet's held result: Hit when that served it), "microflow",
	// "gigaflow", "megaflow", "ltm-table", "slowpath", "partition+install".
	Name string `json:"name"`
	// Table is the LTM cache table index for "ltm-table" stages; -1 on
	// stages that are not per-table annotations (0 is a real index, so it
	// cannot double as "unset").
	Table int `json:"table"`
	// Tag is the pipeline-table tag the matched entry carried; -1 when not
	// applicable.
	Tag int `json:"tag"`
	// Priority is the matched entry's sub-traversal span ρ; -1 when not
	// applicable.
	Priority int `json:"priority"`
	// Hit reports whether the stage's lookup matched.
	Hit bool `json:"hit,omitempty"`
	// DurNs is the stage's wall-clock duration; 0 for annotation stages
	// recorded after the fact (per-table match details).
	DurNs int64 `json:"dur_ns,omitempty"`
}

// Trace is the record of one sampled packet's walk through the vSwitch.
type Trace struct {
	Seq          uint64  `json:"seq"`
	StartUnixNs  int64   `json:"start_unix_ns"`
	Key          string  `json:"key"`
	CacheHit     bool    `json:"cache_hit"`
	MicroflowHit bool    `json:"microflow_hit,omitempty"`
	Verdict      string  `json:"verdict,omitempty"`
	Err          string  `json:"error,omitempty"`
	TotalNs      int64   `json:"total_ns"`
	Stages       []Stage `json:"stages"`
}

// Tracer samples 1-in-N packets and keeps the most recent traces in a
// bounded ring. Start is safe for concurrent use from many workers; with
// sampling disabled (every == 0) it is a single atomic load and never
// allocates.
type Tracer struct {
	every   atomic.Uint64
	n       atomic.Uint64
	sampled atomic.Uint64

	mu   sync.Mutex
	ring []Trace
	pos  int
	fill int
	seq  uint64
}

// NewTracer creates a tracer sampling one packet in sampleEvery (0
// disables sampling entirely) with a ring of buffer recent traces
// (default 256).
func NewTracer(sampleEvery, buffer int) *Tracer {
	if buffer <= 0 {
		buffer = 256
	}
	t := &Tracer{ring: make([]Trace, buffer)}
	if sampleEvery > 0 {
		t.every.Store(uint64(sampleEvery))
	}
	return t
}

// SetSampling changes the sampling rate at runtime (0 disables).
func (t *Tracer) SetSampling(sampleEvery int) {
	if sampleEvery < 0 {
		sampleEvery = 0
	}
	t.every.Store(uint64(sampleEvery))
}

// SampleEvery reports the current 1-in-N rate (0 when disabled).
func (t *Tracer) SampleEvery() int { return int(t.every.Load()) }

// Sampled reports how many traces have been recorded since creation.
func (t *Tracer) Sampled() uint64 { return t.sampled.Load() }

// Start returns a builder when this packet is sampled and nil otherwise.
// Begin and End accept the nil builder and the caller guards the rest, so
// an unsampled packet pays one atomic increment and no allocation; only
// sampled packets reach the allocating newBuilder.
//
//gf:hotpath
func (t *Tracer) Start() *TraceBuilder {
	every := t.every.Load()
	if every == 0 || t.n.Add(1)%every != 0 {
		return nil
	}
	return t.newBuilder()
}

// newBuilder stamps the wall clock and allocates the builder for a
// sampled packet. Cold by construction: called once per 1-in-N packets.
//
//gf:hotpath-safe runs once per sampled packet; stamps the wall clock and allocates the builder by contract
func (t *Tracer) newBuilder() *TraceBuilder {
	now := time.Now()
	return &TraceBuilder{
		tracer: t,
		start:  now,
		tr:     Trace{StartUnixNs: now.UnixNano()},
	}
}

// Recent returns up to max traces, newest first (all buffered traces when
// max <= 0).
func (t *Tracer) Recent(max int) []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.fill
	if max > 0 && max < n {
		n = max
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := (t.pos - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

func (t *Tracer) record(tr Trace) {
	t.mu.Lock()
	t.seq++
	tr.Seq = t.seq
	t.ring[t.pos] = tr
	t.pos = (t.pos + 1) % len(t.ring)
	if t.fill < len(t.ring) {
		t.fill++
	}
	t.mu.Unlock()
	t.sampled.Add(1)
}

// TraceBuilder accumulates one packet's trace. It is used by a single
// goroutine (the worker processing the packet) and pushed into the
// tracer's ring on Finish.
type TraceBuilder struct {
	tracer     *Tracer
	start      time.Time
	stageStart time.Time
	tr         Trace
}

// SetKey records the packet's flow key (rendered lazily by the caller so
// unsampled packets never pay for the string).
func (b *TraceBuilder) SetKey(k string) { b.tr.Key = k }

// Begin opens a timed stage. Begin and End are safe on a nil builder — an
// unsampled packet — where they cost the inlined nil compare and nothing
// else, so the datapath runs the same statements for every packet.
func (b *TraceBuilder) Begin(name string) {
	if b != nil {
		b.begin(name)
	}
}

// begin stays out of line so that Begin, the nil compare, inlines.
//
//gf:hotpath-safe sampled packets only: appends the stage and reads the clock
//go:noinline
func (b *TraceBuilder) begin(name string) {
	b.tr.Stages = append(b.tr.Stages, Stage{Name: name, Table: -1, Tag: -1, Priority: -1})
	b.stageStart = time.Now()
}

// End closes the most recently opened stage, recording its duration and
// hit flag.
func (b *TraceBuilder) End(hit bool) {
	if b != nil {
		b.end(hit)
	}
}

//gf:hotpath-safe sampled packets only: reads the clock
func (b *TraceBuilder) end(hit bool) {
	s := &b.tr.Stages[len(b.tr.Stages)-1]
	s.DurNs = time.Since(b.stageStart).Nanoseconds()
	s.Hit = hit
}

// Note appends an annotation stage (no duration): one matched LTM table
// with its index, tag, and priority.
func (b *TraceBuilder) Note(name string, table, tag, priority int) {
	b.tr.Stages = append(b.tr.Stages, Stage{
		Name: name, Table: table, Tag: tag, Priority: priority, Hit: true,
	})
}

// Finish stamps the outcome and pushes the trace into the ring.
func (b *TraceBuilder) Finish(verdict string, cacheHit, microflowHit bool, err error) {
	b.tr.Verdict = verdict
	b.tr.CacheHit = cacheHit
	b.tr.MicroflowHit = microflowHit
	if err != nil {
		b.tr.Err = err.Error()
	}
	b.tr.TotalNs = time.Since(b.start).Nanoseconds()
	b.tracer.record(b.tr)
}
