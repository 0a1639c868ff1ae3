package service

import (
	"context"

	wire "gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
)

// frameMetrics pre-resolves the byte-level ingestion counters into
// arrays indexed by the codec's dense Proto and ErrCode enums, so
// accounting never looks a label up on the packet path. Every series is
// materialised up front so a scrape shows the full schema at zero.
type frameMetrics struct {
	decoded [wire.NumProtos]*telemetry.Counter
	errs    [wire.NumErrCodes]*telemetry.Counter
	frames  *telemetry.Counter
	bytes   *telemetry.Counter
	vlan    *telemetry.Counter
	frags   *telemetry.Counter
}

func newFrameMetrics(reg *telemetry.Registry) *frameMetrics {
	m := &frameMetrics{
		frames: reg.Counter("gigaflow_frames_total",
			"Wire-format frames submitted through SubmitFrame/SubmitFrameBatch."),
		bytes: reg.Counter("gigaflow_frame_bytes_total",
			"Bytes of wire-format frames submitted."),
		vlan: reg.Counter("gigaflow_frames_vlan_total",
			"Frames that carried an 802.1Q/802.1ad VLAN tag."),
		frags: reg.Counter("gigaflow_frames_fragment_total",
			"Non-first IPv4 fragments (transport ports unavailable)."),
	}
	decoded := reg.CounterVec("gigaflow_frames_decoded_total",
		"Decoded frames by protocol class.", "proto")
	for p := 0; p < wire.NumProtos; p++ {
		m.decoded[p] = decoded.With(wire.Proto(p).String())
	}
	errs := reg.CounterVec("gigaflow_frame_decode_errors_total",
		"Frames whose decode hit a defect, by reason (degraded keys are still forwarded).", "reason")
	for e := 1; e < wire.NumErrCodes; e++ { // 0 is ErrOK, not an error
		m.errs[e] = errs.With(wire.ErrCode(e).String())
	}
	return m
}

// frameTally is one call's frame accounting, held in plain words by the
// submitter whose ingest decodes the frames, so the process-shared atomic
// counters are touched once per call and counter, not three or more times
// per frame.
type frameTally struct {
	frames, bytes, vlan, frags uint64
	decoded                    [wire.NumProtos]uint64
	errs                       [wire.NumErrCodes]uint64
}

// add accounts one decoded frame of n wire bytes.
//
//gf:hotpath
func (t *frameTally) add(info *wire.Info, n int) {
	t.frames++
	t.bytes += uint64(n)
	t.decoded[info.Proto]++
	if info.Err != wire.ErrOK {
		t.errs[info.Err]++
	}
	if info.VLAN != 0 {
		t.vlan++
	}
	if info.Fragment {
		t.frags++
	}
}

// flush folds a tally into the shared counters and empties it. Ingest
// flushes before it submits anything, so a scrape reads the same totals
// after every call as per-frame accounting would give.
//
//gf:hotpath
func (m *frameMetrics) flush(t *frameTally) {
	if t.frames == 0 {
		return
	}
	m.frames.Add(t.frames)
	m.bytes.Add(t.bytes)
	for p, n := range t.decoded {
		if n != 0 {
			m.decoded[p].Add(n)
		}
	}
	for e, n := range t.errs {
		if n != 0 { // never ErrOK, whose slot has no counter
			m.errs[e].Add(n)
		}
	}
	if t.vlan != 0 {
		m.vlan.Add(t.vlan)
	}
	if t.frags != 0 {
		m.frags.Add(t.frags)
	}
	*t = frameTally{}
}

// Frame is one entry of a frame batch: a raw Ethernet frame and the
// ingress port it arrived on. Per-entry ports let one batch carry
// frames from multiple logical NIC queues without lying about
// provenance.
type Frame struct {
	InPort uint16
	Data   []byte
}

// SubmitFrameBatch ingests raw frames into b — emptying it first — and
// submits them as one unit: the batch is grouped into at most one
// share per worker, each shard processes its share through the batched
// hot path, and per-request Results are read back from b positionally.
// The batch is index-aligned with frames: request i holds frame i's
// Result (and its decoded Key).
//
// Blocking (default): returns after every request has its Result; order
// within a worker is submission order — including relative to the same
// goroutine's earlier nonblocking submissions and control operations —
// and a request's error (pipeline failure) is in its Result.Err while
// call-level failures (ErrNotStarted, ErrClosed, ctx.Err()) are returned.
// Even on a call-level failure every share that reached a worker is
// drained before returning, so b is always safe to reuse; requests that
// never ran carry the call error in their Result.Err.
//
// With Nonblocking: requests are enqueued without waiting; a request
// whose worker queue is full gets ErrQueueFull in its Result.Err, the
// rest have Result.Err nil with verdicts unreported (use WithResponse to
// stream them); after Close every request gets ErrClosed. The batch may
// be reused immediately.
//
// Ingestion decodes each frame once, on the calling goroutine, into the
// key its shard's cache lookup reads, and files it under the shard the
// key's endpoint-symmetric hash picks (both directions of a flow share a
// shard). The decode's TCP flag byte rides along as the packet's
// metadata, so a conntrack-enabled service sees handshakes and closes.
// Frames with decode defects degrade to the longest well-formed prefix
// of the key and are still submitted; frames too short for an Ethernet
// header are never submitted and carry ErrShortFrame in Result.Err, so a
// mixed batch reports per-index outcomes. The frame counters count every
// frame handed in exactly once, whatever becomes of its submission.
//
// The service reads frame bytes only during the call: the caller may
// reuse its buffers as soon as the call is back.
func (s *Service) SubmitFrameBatch(ctx context.Context, frames []Frame, b *Batch, opts ...SubmitOption) error {
	b.shape(len(s.workers))
	b.ingest(s, frames)
	return s.submit(ctx, b, applyOpts(opts))
}

// SubmitFrame submits one raw Ethernet frame received on inPort: a pooled
// batch of one through SubmitFrameBatch. By default it blocks until the
// verdict is available and returns it; with Nonblocking it only enqueues
// (the returned Result carries no verdict; pair with WithResponse to
// receive it asynchronously). Flows with the same 5-tuple always reach
// the same worker. Frames with decode defects degrade to the longest
// well-formed prefix of the key and are still forwarded (the pipeline
// decides their fate); only a frame too short to carry an Ethernet
// header is rejected, with ErrShortFrame. Decode outcomes are counted in
// the metrics registry either way. Errors: ErrNotStarted, ErrClosed,
// ErrQueueFull (nonblocking), ctx.Err(), ErrShortFrame, or the packet's
// own pipeline error.
func (s *Service) SubmitFrame(ctx context.Context, inPort uint16, frame []byte, opts ...SubmitOption) (Result, error) {
	b := batchPool.Get().(*Batch)
	one := [1]Frame{{InPort: inPort, Data: frame}}
	return only(b, s.SubmitFrameBatch(ctx, one[:], b, opts...))
}
