package service

import (
	"context"
	"errors"
	"sync"
	"testing"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

// TestSubmitBatchEmpty: an empty batch is a no-op — no error even on an
// unstarted service (there is nothing to refuse).
func TestSubmitBatchEmpty(t *testing.T) {
	s, err := New(buildPipeline(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(8)
	if err := s.SubmitFrameBatch(context.Background(), nil, b); err != nil {
		t.Fatalf("empty batch on unstarted service: %v", err)
	}
	s2, ctx := startService(t, 2)
	if err := s2.SubmitFrameBatch(ctx, nil, b); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	st, err := s2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 0 {
		t.Fatalf("empty batch processed %d packets", st.Packets)
	}
}

// TestSubmitBatchOfOne: a single-frame batch behaves exactly like
// SubmitFrame.
func TestSubmitBatchOfOne(t *testing.T) {
	s, ctx := startService(t, 2)
	frame := frameOf(t, key(1, 80), 0)
	direct, err := s.SubmitFrame(ctx, 0, frame)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(1)
	if err := s.SubmitFrameBatch(ctx, []Frame{{Data: frame}}, b); err != nil {
		t.Fatal(err)
	}
	r := b.Result(0)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Verdict != direct.Verdict || r.Final != direct.Final {
		t.Fatalf("batch-of-one result %+v != SubmitFrame result %+v", r, direct)
	}
	if !r.CacheHit {
		t.Error("second packet of the flow must hit")
	}
}

// TestSubmitBatchLargerThanQueue: a batch crosses each worker channel as
// ONE message, so a blocking batch far larger than the queue depth still
// completes — queue depth bounds messages, not packets.
func TestSubmitBatchLargerThanQueue(t *testing.T) {
	s, ctx := start(t, buildPipeline(), Config{
		Workers:    2,
		QueueDepth: 2,
		Cache:      gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
	}), context.Background()
	const n = 500
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = Frame{Data: frameOf(t, key(uint64(i%100), 80), 0)}
	}
	b := NewBatch(n)
	if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Result(i).Err; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if b.Result(i).Verdict.Port != 1 {
			t.Fatalf("request %d: verdict %+v", i, b.Result(i).Verdict)
		}
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != n {
		t.Fatalf("processed %d packets, want %d", st.Packets, n)
	}
}

// TestSubmitFrameBatchMixed: malformed frames are refused per index with
// ErrShortFrame; the decodable frames around them are still processed.
func TestSubmitFrameBatchMixed(t *testing.T) {
	s, ctx := startService(t, 2)
	good := wire.Encode(wireKey(1, 80))
	short := []byte{0x02, 0x00, 0x00} // shorter than an Ethernet header
	frames := []Frame{{0, good}, {0, short}, {0, good}, {0, short}, {0, good}}

	b := NewBatch(len(frames))
	if err := s.SubmitFrameBatch(ctx, frames, b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(frames) {
		t.Fatalf("batch is not index-aligned: %d requests for %d frames", b.Len(), len(frames))
	}
	for i := range frames {
		err := b.Result(i).Err
		if i%2 == 1 {
			if !errors.Is(err, ErrShortFrame) {
				t.Errorf("frame %d: err = %v, want ErrShortFrame", i, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("frame %d: %v", i, err)
		}
		if b.Result(i).Verdict.Port != 1 {
			t.Errorf("frame %d: verdict %+v", i, b.Result(i).Verdict)
		}
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 3 {
		t.Fatalf("processed %d packets, want 3 (refused frames never submitted)", st.Packets)
	}

	// A nonblocking call reports the same per-index refusals, and every
	// submitted request's key is the one its frame decodes to.
	nb := NewBatch(len(frames))
	if err := s.SubmitFrameBatch(ctx, frames, nb, Nonblocking()); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if err := nb.Result(i).Err; (i%2 == 1) != errors.Is(err, ErrShortFrame) || i%2 == 0 && err != nil {
			t.Errorf("nonblocking frame %d: err = %v", i, err)
		}
		if i%2 == 1 {
			continue
		}
		if want, _ := wire.Decode(f.Data, f.InPort); nb.Key(i) != want {
			t.Errorf("nonblocking frame %d: Key = %s, want %s", i, nb.Key(i), want)
		}
	}
}

// TestErrorTaxonomy pins the sentinel contract: every lifecycle and
// overload failure is matchable with errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	s, err := New(buildPipeline(), Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	frame := frameOf(t, key(1, 80), 0)
	one := []Frame{{Data: frame}}

	if _, err := s.SubmitFrame(ctx, 0, frame); !errors.Is(err, ErrNotStarted) {
		t.Errorf("SubmitFrame before Start = %v, want ErrNotStarted", err)
	}
	b := NewBatch(1)
	if err := s.SubmitFrameBatch(ctx, one, b); !errors.Is(err, ErrNotStarted) {
		t.Errorf("SubmitFrameBatch before Start = %v, want ErrNotStarted", err)
	}
	if err := s.Close(); !errors.Is(err, ErrNotStarted) {
		t.Errorf("Close before Start = %v, want ErrNotStarted", err)
	}

	// Nonblocking may queue before Start; the queue (depth 1) accepts one
	// packet, served once the service starts, and then reports
	// ErrQueueFull.
	resp := make(chan Result, 1)
	if _, err := s.SubmitFrame(ctx, 0, frame, Nonblocking(), WithResponse(resp)); err != nil {
		t.Errorf("first nonblocking enqueue = %v", err)
	}
	if _, err := s.SubmitFrame(ctx, 0, frame, Nonblocking()); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflowing nonblocking enqueue = %v, want ErrQueueFull", err)
	}

	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if r := recv(t, resp, "the packet queued before Start"); r.Err != nil || r.Verdict.Port != 1 {
		t.Errorf("packet queued before Start: %+v", r)
	}
	if err := s.Start(ctx); !errors.Is(err, ErrStarted) {
		t.Errorf("second Start = %v, want ErrStarted", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if _, err := s.SubmitFrame(ctx, 0, frame); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitFrame after Close = %v, want ErrClosed", err)
	}
	if err := s.SubmitFrameBatch(ctx, one, b); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitFrameBatch after Close = %v, want ErrClosed", err)
	}
	if err := s.Start(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after Close = %v, want ErrClosed", err)
	}

	// Frame rejection comes before the service state is looked at.
	if _, err = s.SubmitFrame(ctx, 0, []byte{1, 2, 3}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame err = %v, want ErrShortFrame", err)
	}
}

// TestConcurrentBatchSubmitters hammers the batched blocking path from
// many goroutines (run under -race in make ci): every batch must come
// back fully resolved, and the aggregate packet count must be exact.
func TestConcurrentBatchSubmitters(t *testing.T) {
	s, ctx := startService(t, 4)
	const (
		goroutines = 8
		batches    = 20
		batchLen   = 33 // deliberately not a divisor-friendly size
	)
	hosts := make([][]byte, 200)
	for h := range hosts {
		hosts[h] = frameOf(t, key(uint64(h), 80), 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, frames := NewBatch(batchLen), make([]Frame, batchLen)
			for n := 0; n < batches; n++ {
				for i := range frames {
					frames[i] = Frame{Data: hosts[(g*batches+n*7+i)%200]}
				}
				err := s.SubmitFrameBatch(ctx, frames, b)
				for i := 0; err == nil && i < batchLen; i++ {
					err = b.Result(i).Err
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(goroutines * batches * batchLen); st.Packets != want {
		t.Fatalf("processed %d packets, want %d", st.Packets, want)
	}
}
