package service

import (
	"context"

	wire "gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
)

// frameMetrics pre-resolves the byte-level ingestion counters into
// arrays indexed by the codec's dense Proto and ErrCode enums, so
// accounting never looks a label up on the packet path. Every series is
// materialised up front so /metrics shows the full schema at zero.
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

// frameTally is frame accounting held in plain words by whoever decodes
// a run of frames — a shard worker for one job, a submitter for one
// batch's fallback decodes — so the process-shared atomic counters are
// touched once per run and counter, not three or more times per frame.
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

// flush folds a tally into the shared counters and empties it. Callers
// flush before the submission the frames belong to completes, so /metrics
// reads the same totals after every completed submission as per-frame
// accounting would give.
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

// decodeCounts reads what Replay reports as deltas: frames decoded per
// protocol class, and how many of them decoded with a defect yet were
// forwarded. A refused frame is tallied as a non-IPv4 short_frame defect;
// it was never forwarded, so both figures leave it out.
func (m *frameMetrics) decodeCounts() (perProto [wire.NumProtos]int, degraded int) {
	for p := range perProto {
		perProto[p] = int(m.decoded[p].Value())
	}
	perProto[wire.ProtoNonIPv4] -= int(m.errs[wire.ErrShortFrame].Value())
	for e := 1; e < wire.NumErrCodes; e++ { // 0 is ErrOK, which has no counter
		if wire.ErrCode(e) != wire.ErrShortFrame {
			degraded += int(m.errs[e].Value())
		}
	}
	return perProto, degraded
}

// Frame is one entry of a frame batch: a raw Ethernet frame and the
// ingress port it arrived on. Per-entry ports let one batch carry
// frames from multiple logical NIC queues without lying about
// provenance.
type Frame struct {
	InPort uint16
	Data   []byte
}

// SubmitFrameBatch ingests raw frames into b — which it Resets first —
// and submits them as a single batch with SubmitBatch's semantics. The
// batch is index-aligned with frames: request i holds frame i's Result
// (and, after a blocking submission, its decoded Key).
//
// Ingestion is RSS-style: each frame's 5-tuple is extracted straight
// from its L3/L4 header words (wire.RSSTuple) and the frame is filed —
// still undecoded — under the shard the symmetric hash picks, so a
// shard's share is one contiguous block of the batch and the full decode
// runs on the shard, into the slot the cache lookup reads, in parallel
// with every other shard's. A one-shard service skips the hash (the
// extractor still validates the headers). Frames the extractor refuses
// (non-IPv4, truncated headers, over-deep VLAN stacks) fall back to
// submitter-side decode plus key-hash routing, which lands on the same
// shard the wire hash would have and preserves the degraded-frame
// semantics bit for bit; of those, frames too short for an Ethernet
// header are never submitted and carry the *FrameError in Result.Err
// (matching ErrBadFrame and the specific sentinel, e.g. ErrShortFrame),
// so a mixed batch reports per-index outcomes.
//
// A blocking submission reads each frame's bytes in place until it
// returns; a nonblocking one copies them before returning. Either way
// the caller may reuse its buffers as soon as the call is back.
func (s *Service) SubmitFrameBatch(ctx context.Context, frames []Frame, b *Batch, opts ...SubmitOption) error {
	b.Reset()
	b.shape(len(s.workers))
	b.ingest(s, frames)
	return s.submit(ctx, b, applyOpts(opts))
}

// SubmitFrame submits one raw Ethernet frame received on inPort: a pooled
// batch of one through SubmitFrameBatch, with Submit's semantics (blocking
// by default; the Nonblocking and WithResponse options apply). The frame
// is decoded on its shard and its TCP flag byte rides along as the
// packet's metadata, so a conntrack-enabled service sees handshakes and
// closes. Frames with decode defects degrade to the longest well-formed
// prefix of the key and are still forwarded (the pipeline decides their
// fate); only a frame too short to carry an Ethernet header is rejected,
// with ErrShortFrame (a *FrameError matching ErrBadFrame). Decode
// outcomes are counted in the metrics registry either way.
func (s *Service) SubmitFrame(ctx context.Context, inPort uint16, frame []byte, opts ...SubmitOption) (Result, error) {
	b := batchPool.Get().(*Batch)
	one := [1]Frame{{InPort: inPort, Data: frame}}
	return only(b, s.SubmitFrameBatch(ctx, one[:], b, opts...))
}
