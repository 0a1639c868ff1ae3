package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pcap"
)

// ReplayConfig parameterises a pcap replay through a running Service.
type ReplayConfig struct {
	// InPort is the ingress port every replayed frame is attributed to
	// (a replay injects on one logical NIC queue).
	InPort uint16
	// Timed paces the replay by the capture's own timestamps instead
	// of as-fast-as-possible: each frame is submitted no earlier than
	// its trace offset from the first frame, scaled by Speedup.
	Timed bool
	// Speedup compresses (>1) or stretches (<1) the trace timeline in
	// Timed mode (default 1.0).
	Speedup float64
	// Blocking submits each batch and waits for its results — no frame
	// is ever dropped, which keeps the replayed cache behaviour
	// identical to direct key submission. The default is fire-and-forget
	// nonblocking submission, the overload semantics of a real rx ring,
	// with queue-full drops counted.
	Blocking bool
	// Limit stops after this many records (0 replays everything).
	Limit int
	// BatchSize is how many frames go into one SubmitFrameBatch call
	// (default DefaultBatchSize); each batch crosses a worker channel at
	// most once per worker. 1 reproduces per-packet submission exactly.
	// Batching never reorders frames bound for the same worker, so cache
	// behaviour and final stats are identical at any batch size (in
	// Blocking mode, where nothing is dropped).
	BatchSize int
}

// DefaultBatchSize is the replay batch size when ReplayConfig leaves
// BatchSize zero — big enough to amortize the per-batch channel and
// bookkeeping cost, small enough to keep per-frame latency irrelevant.
const DefaultBatchSize = 32

// ReplayReport summarises one replay.
type ReplayReport struct {
	// Frames is the number of pcap records read.
	Frames int
	// Bytes is the sum of captured frame bytes read.
	Bytes int
	// Submitted counts frames that entered a worker queue.
	Submitted int
	// QueueDrops counts frames rejected by a full worker queue
	// (non-blocking mode only).
	QueueDrops int
	// Rejected counts frames refused outright (shorter than an Ethernet
	// header: their Result carries ErrShortFrame), never submitted.
	Rejected int
	// DecodeErrors counts frames that decoded with a defect but were
	// still forwarded on a degraded key. Like PerProto it is the change
	// in the service's frame counters over the replay: a frame a full
	// queue dropped before its shard decoded it is in QueueDrops only,
	// and frames other goroutines submit meanwhile count as in Stats.
	DecodeErrors int
	// PipelineErrs counts blocking-mode frames whose processing
	// returned a pipeline error (misconfigured table graph).
	PipelineErrs int
	// PerProto counts decoded frames by protocol class, indexed by
	// wire.Proto (Rejected frames excluded; see DecodeErrors).
	PerProto [wire.NumProtos]int
	// Truncated reports that the capture ended mid-record; the replay
	// covers everything before the cut.
	Truncated bool
	// Stats is the service-wide VSwitch counter delta over the replay:
	// hits, misses, slowpath traversals attributable to this trace.
	Stats gigaflow.VSwitchStats
	// Elapsed is the wall-clock replay duration.
	Elapsed time.Duration
}

// Replay streams a pcap capture through SubmitFrameBatch, cfg.BatchSize
// records a call — frames, not keys: each is decoded on its shard — and
// reports what happened. The service must be started. In non-blocking
// mode the report's Stats and decode counts are still complete: the
// final stats snapshot runs as a control op behind every submitted frame
// on each worker's FIFO queue, once no packet is left parked behind an
// upcall, so it observes all of them.
//
// On context cancellation every batch already handed to the workers is
// drained before Replay returns (SubmitFrameBatch gathers its in-flight
// results even on failure), so a cancelled replay leaks no goroutine
// and no pending result.
func (s *Service) Replay(ctx context.Context, r *pcap.Reader, cfg ReplayConfig) (ReplayReport, error) {
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	var rep ReplayReport
	before, err := s.Stats(ctx)
	if err != nil {
		return rep, err
	}
	protoBefore, degradedBefore := s.frames.decodeCounts()

	// r reuses its record buffer, so each frame's bytes are copied into an
	// arena that lives until the flush (when it grows, the frames already
	// in it keep the array they point into).
	batch := NewBatch(cfg.BatchSize)
	frames := make([]Frame, 0, cfg.BatchSize)
	var arena []byte
	var mode []SubmitOption
	if !cfg.Blocking {
		mode = []SubmitOption{Nonblocking()}
	}
	flush := func() error {
		if len(frames) == 0 {
			return nil
		}
		if err := s.SubmitFrameBatch(ctx, frames, batch, mode...); err != nil {
			return err
		}
		for i := range frames {
			switch e := batch.Result(i).Err; {
			case e == nil:
				rep.Submitted++
			case errors.Is(e, ErrQueueFull):
				rep.QueueDrops++
			case errors.Is(e, ErrShortFrame):
				rep.Rejected++
			default:
				// A per-packet pipeline error is a property of the
				// ruleset, not the replay; count it and keep going.
				rep.Submitted++
				rep.PipelineErrs++
			}
		}
		frames, arena = frames[:0], arena[:0]
		return nil
	}

	start := time.Now()
	var traceStart int64
	for cfg.Limit <= 0 || rep.Frames < cfg.Limit {
		rec, err := r.Next()
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				// An interrupted capture: replay what exists, as
				// capture tooling does, and say so in the report.
				rep.Truncated = true
				break
			}
			if errors.Is(err, io.EOF) {
				break
			}
			return rep, err
		}
		if cfg.Timed {
			if rep.Frames == 0 {
				traceStart = rec.TimeNs
			}
			offset := time.Duration(float64(rec.TimeNs-traceStart) / cfg.Speedup)
			if wait := time.Until(start.Add(offset)); wait > 0 {
				// Flush before pacing so frames already read are not
				// held past their trace slots by later ones.
				if err := flush(); err != nil {
					return rep, err
				}
				select {
				case <-ctx.Done():
					return rep, ctx.Err()
				case <-time.After(wait):
				}
			}
		}
		rep.Frames++
		rep.Bytes += len(rec.Frame)
		off := len(arena)
		arena = append(arena, rec.Frame...)
		frames = append(frames, Frame{InPort: cfg.InPort, Data: arena[off:len(arena):len(arena)]})
		if len(frames) >= cfg.BatchSize {
			if err := flush(); err != nil {
				return rep, err
			}
		}
	}
	if err := flush(); err != nil {
		return rep, err
	}
	rep.Elapsed = time.Since(start)
	// A packet parked behind an upcall is still in flight when its job has
	// run: wait until the offload has handed every one back.
	for !cfg.Blocking && s.eng != nil {
		us, err := s.UpcallStats(ctx)
		if err != nil {
			return rep, err
		}
		if us.ParkedPackets == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return rep, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	after, err := s.Stats(ctx)
	if err != nil {
		return rep, err
	}
	rep.Stats = after.Sub(before)
	// Every job flushed its decode tally before its results, and the
	// closing Stats ran behind every job: the counters are complete.
	proto, degraded := s.frames.decodeCounts()
	for p := range proto {
		rep.PerProto[p] = proto[p] - protoBefore[p]
	}
	rep.DecodeErrors = degraded - degradedBefore
	return rep, nil
}

// HitRate is the cache hit rate over the replayed traffic (microflow +
// main cache), 0 when nothing was processed.
func (rep ReplayReport) HitRate() float64 { return rep.Stats.TotalHitRate() }

// String renders a one-line summary.
func (rep ReplayReport) String() string {
	return fmt.Sprintf("%d frames (%d bytes) in %v: %d submitted, %d queue drops, %d rejected, %d decode errors, hit rate %.2f%%",
		rep.Frames, rep.Bytes, rep.Elapsed.Round(time.Millisecond),
		rep.Submitted, rep.QueueDrops, rep.Rejected, rep.DecodeErrors, 100*rep.HitRate())
}
